(* Unit tests for the model-compliance lint (tools/lint): one positive
   and one negative fixture per rule, scoping, the interprocedural pass
   (call graph, node-locality / send-discipline), the bandwidth pass,
   and the baseline workflow (suppression, exact counts, stale
   detection, --update-baseline rendering). *)

module Lint = Repro_lint.Lint_core
module Interproc = Repro_lint.Interproc
module Cg = Repro_lint.Callgraph
module Bandwidth = Repro_lint.Bandwidth

let () = Repro_congest.Engine.audit_enabled := true

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* lint a fixture source as if it lived at [file] *)
let findings ?(file = "lib/congest/fixture.ml") src =
  match Lint.lint_source ~file src with
  | Ok fs -> fs
  | Error msg -> Alcotest.failf "fixture did not parse: %s" msg

let rules_of ?file src = List.map (fun f -> f.Lint.rule) (findings ?file src)

let flags rule ?file src =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %S" rule src)
    true
    (List.mem rule (rules_of ?file src))

let clean rule ?file src =
  Alcotest.(check bool)
    (Printf.sprintf "%s accepts %S" rule src)
    false
    (List.mem rule (rules_of ?file src))

(* ------------------------------------------------------------------ *)
(* One positive / one negative fixture per rule *)

let test_unseeded_random () =
  flags "unseeded-random" "let x = Random.int 10";
  flags "unseeded-random" "let () = Random.self_init ()";
  flags "unseeded-random" "let s = Random.State.make_self_init ()";
  clean "unseeded-random" "let x = Random.State.int rng 10";
  clean "unseeded-random" "let s = Random.State.make [| seed |]"

let test_ambient_env () =
  flags "ambient-env" "let t = Sys.time ()";
  flags "ambient-env" "let h = Sys.getenv \"HOME\"";
  flags "ambient-env" "let t = Unix.gettimeofday ()";
  clean "ambient-env" "let n = Sys.word_size";
  clean "ambient-env" "let t = now ()"

let test_unsafe_escape () =
  flags "unsafe-escape" "let x = Obj.magic y";
  flags "unsafe-escape" "let s = Marshal.to_string v []";
  clean "unsafe-escape" "let x = magic y"

let test_lib_abort () =
  flags "lib-abort" "let f () = failwith \"boom\"";
  flags "lib-abort" "let f = function Some x -> x | None -> assert false";
  clean "lib-abort" "let f () = invalid_arg \"f: bad input\"";
  (* ordinary asserts are fine: they carry the condition *)
  clean "lib-abort" "let f x = assert (x > 0)";
  (* the rule only binds library code *)
  clean "lib-abort" ~file:"bin/fixture.ml" "let f () = failwith \"cli usage\"";
  clean "lib-abort" ~file:"test/fixture.ml" "let f () = failwith \"test\""

let test_catch_all () =
  flags "catch-all" "let x = try f () with _ -> 0";
  clean "catch-all" "let x = try f () with Not_found -> 0";
  (* binding the exception is allowed: it can be inspected or re-raised *)
  clean "catch-all" "let x = try f () with e -> raise e"

let test_poly_compare () =
  flags "poly-compare" "let s = List.sort compare xs";
  flags "poly-compare" "let c = compare a b";
  flags "poly-compare" "let c = Stdlib.compare a b";
  clean "poly-compare" "let s = List.sort Int.compare xs";
  clean "poly-compare" "let c = String.compare a b";
  (* scoped to lib/congest: approximation is too coarse elsewhere *)
  clean "poly-compare" ~file:"lib/core/fixture.ml" "let s = List.sort compare xs"

let test_hashtbl_order () =
  flags "hashtbl-order" "let () = Hashtbl.iter f tbl";
  flags "hashtbl-order" "let x = Hashtbl.fold f tbl 0";
  clean "hashtbl-order" "let x = Hashtbl.find tbl k";
  clean "hashtbl-order" ~file:"lib/treedec/fixture.ml" "let () = Hashtbl.iter f tbl"

let test_finding_positions () =
  match findings "let a = 1\nlet b = Random.int 4" with
  | [ f ] ->
      check_int "line" 2 f.Lint.line;
      check_int "col" 8 f.Lint.col;
      Alcotest.(check string) "file" "lib/congest/fixture.ml" f.Lint.file
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_nested_expressions_are_walked () =
  flags "unseeded-random"
    "let f xs = List.map (fun x -> match x with Some y -> y + Random.int 3 | None -> 0) xs"

let test_rule_list_is_consistent () =
  check_int "every rule documented" (List.length Lint.rules) (List.length Lint.rule_ids);
  List.iter
    (fun (id, descr) ->
      check_bool (id ^ " has description") true (String.length descr > 0))
    Lint.rules

(* ------------------------------------------------------------------ *)
(* Interprocedural pass: call graph, locality/send rules *)

(* parse a set of (file, source) pairs and run every interprocedural rule *)
let interproc sources =
  Interproc.analyze
    (List.map
       (fun (file, src) ->
         match Lint.parse_source ~file src with
         | Ok s -> (file, s)
         | Error msg -> Alcotest.failf "fixture %s did not parse: %s" file msg)
       sources)

let interproc_findings sources = snd (interproc sources)

let has_finding rule substring fs =
  List.exists
    (fun (f : Lint.finding) ->
      f.Lint.rule = rule
      &&
      let msg = f.Lint.message and n = String.length substring in
      let rec at i = i + n <= String.length msg && (String.sub msg i n = substring || at (i + 1)) in
      at 0)
    fs

(* the three-file escape: algo's step -> Helper.consult -> State.lookup
   -> State.table, a module-level Hashtbl *)
let escape_sources =
  [
    ("fx/state.ml", "let table = Hashtbl.create 16\nlet lookup v = Hashtbl.find_opt table v");
    ("fx/helper.ml", "let consult v = match State.lookup v with Some d -> d | None -> 0");
    ( "fx/algo.ml",
      "let run graph =\n\
      \  let init _node = 0 in\n\
      \  let step node st _inbox = st + Helper.consult node in\n\
      \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
  ]

let test_interproc_escape_chain () =
  let fs = interproc_findings escape_sources in
  check_bool "node-locality fires" true (has_finding "node-locality" "State.table" fs);
  (* the full reachability chain is printed, not just the endpoint *)
  check_bool "chain printed" true
    (has_finding "node-locality" "step -> Helper.consult -> State.lookup -> State.table" fs);
  (* the finding anchors at the callback site in algo.ml *)
  check_bool "anchored at callback" true
    (List.for_all (fun (f : Lint.finding) -> f.Lint.file = "fx/algo.ml") fs)

let test_interproc_clean_twin () =
  (* same shape, but the table is created in init and threaded through *)
  let fs =
    interproc_findings
      [
        ( "fx/state.ml",
          "let make () = Hashtbl.create 16\nlet lookup t v = Hashtbl.find_opt t v" );
        ("fx/helper.ml", "let consult t v = State.lookup t v");
        ( "fx/algo.ml",
          "let run graph =\n\
          \  let init _node = State.make () in\n\
          \  let step node st _inbox = ignore (Helper.consult st node); st in\n\
          \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
      ]
  in
  check_int "clean twin has no findings" 0 (List.length fs)

let test_interproc_send_discipline () =
  let fs =
    interproc_findings
      [
        ( "fx/algo.ml",
          "let run graph m =\n\
          \  let init _node = 0 in\n\
          \  let step _node st inbox = Metrics.add_count m Words (List.length inbox); st in\n\
          \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
      ]
  in
  check_bool "send-discipline fires" true (has_finding "send-discipline" "Metrics.add_count" fs);
  let clean =
    interproc_findings
      [
        ( "fx/algo.ml",
          "let run graph =\n\
          \  let init _node = 0 in\n\
          \  let step _node st inbox = st + List.length inbox in\n\
          \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
      ]
  in
  check_int "clean twin has no findings" 0 (List.length clean)

let test_interproc_wrapped_metrics_path () =
  (* library-wrapper qualification still matches the Metrics charge *)
  let fs =
    interproc_findings
      [
        ( "fx/algo.ml",
          "let run graph m =\n\
          \  let init _node = 0 in\n\
          \  let step _node st _inbox = Repro_congest.Metrics.add_count m Messages 1; st in\n\
          \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
      ]
  in
  check_bool "wrapped path flagged" true
    (has_finding "send-discipline" "Repro_congest.Metrics.add_count" fs)

let test_interproc_alias_resolution () =
  (* a module alias must not launder the reference *)
  let fs =
    interproc_findings
      [
        ("fx/state.ml", "let table = Hashtbl.create 16\nlet lookup v = Hashtbl.find_opt table v");
        ( "fx/algo.ml",
          "module S = State\n\
           let run graph =\n\
          \  let init _node = 0 in\n\
          \  let step node st _inbox = ignore (S.lookup node); st in\n\
          \  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)" );
      ]
  in
  check_bool "alias resolved" true (has_finding "node-locality" "State.table" fs)

let test_interproc_non_callback_is_exempt () =
  (* module-level globals are fine for coordinator-side code: only
     per-node callbacks are confined *)
  let fs =
    interproc_findings
      [
        ("fx/state.ml", "let table = Hashtbl.create 16\nlet lookup v = Hashtbl.find_opt table v");
        ("fx/main.ml", "let report () = State.lookup 0");
      ]
  in
  check_int "coordinator code unflagged" 0 (List.length fs)

let test_callgraph_shape () =
  let cg, _ = interproc escape_sources in
  check_int "three files" 3 (List.length cg.Cg.files);
  (* the callback site was collected with its labels *)
  let labels = List.map (fun cb -> cb.Cg.cb_label) cg.Cg.callbacks in
  check_bool "init collected" true (List.mem "init" labels);
  check_bool "step collected" true (List.mem "step" labels);
  (* cross-file edge: helper.ml#consult calls state.ml#lookup *)
  match Cg.find cg { Cg.s_file = "fx/helper.ml"; s_path = "consult" } with
  | None -> Alcotest.fail "consult not in the graph"
  | Some b ->
      check_bool "cross-file call resolved" true
        (List.exists
           (fun (s : Cg.sym) -> s.Cg.s_file = "fx/state.ml" && s.Cg.s_path = "lookup")
           b.Cg.calls)

(* ------------------------------------------------------------------ *)
(* On-disk fixture directories: the seeded-violation corpus *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_dir name =
  let dir = Filename.concat "lint_fixtures" name in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, read_file path))

let test_fixture_corpus () =
  let rules_in name = List.map (fun (f : Lint.finding) -> f.Lint.rule)
      (interproc_findings (fixture_dir name)) in
  check_bool "node_locality_bad flagged" true (List.mem "node-locality" (rules_in "node_locality_bad"));
  check_int "node_locality_ok clean" 0 (List.length (rules_in "node_locality_ok"));
  check_bool "send_discipline_bad flagged" true
    (List.mem "send-discipline" (rules_in "send_discipline_bad"));
  check_int "send_discipline_ok clean" 0 (List.length (rules_in "send_discipline_ok"))

(* ------------------------------------------------------------------ *)
(* Bandwidth-soundness pass: verdicts and charge-site certification *)

let parsed_of sources =
  List.map
    (fun (file, src) ->
      match Lint.parse_source ~file src with
      | Ok s -> (file, s)
      | Error msg -> Alcotest.failf "fixture %s did not parse: %s" file msg)
    sources

let bandwidth_report sources =
  let parsed = parsed_of sources in
  Bandwidth.analyze (Cg.build parsed) parsed

let test_bandwidth_verdicts () =
  let r =
    bandwidth_report
      [ ("fx/algo.ml", "module Msg = struct type t = int * int let words _ = 2 end") ]
  in
  (match r.Bandwidth.b_verdicts with
  | [ v ] ->
      Alcotest.(check string) "name" "Algo.Msg" v.Bandwidth.v_name;
      Alcotest.(check string) "kind" "algorithm" v.Bandwidth.v_kind;
      Alcotest.(check string) "content" "2" v.Bandwidth.v_content;
      check_bool "passes" true v.Bandwidth.v_ok
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  check_bool "all pass" true r.Bandwidth.b_all_pass

let test_bandwidth_undercharge () =
  let fs =
    Bandwidth.findings_of_report
      (bandwidth_report
         [ ("fx/algo.ml", "module Msg = struct type t = int * int let words _ = 1 end") ])
  in
  check_bool "undercharge flagged" true (has_finding "bandwidth-sound" "may undercharge" fs)

let test_bandwidth_wrapper () =
  let r =
    bandwidth_report
      [
        ( "fx/wrap.ml",
          "module Wrap (M : sig type t val words : t -> int end) = struct\n\
          \  module X = struct\n\
          \    type t = Data of M.t | Beat\n\
          \    let words = function Beat -> 1 | Data m -> 1 + M.words m\n\
          \  end\n\
           end" );
      ]
  in
  match r.Bandwidth.b_verdicts with
  | [ v ] ->
      Alcotest.(check string) "kind" "wrapper" v.Bandwidth.v_kind;
      Alcotest.(check string) "content" "payload" v.Bandwidth.v_content;
      check_bool "wrapper passes" true v.Bandwidth.v_ok
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let test_bandwidth_charge_site () =
  (* the rule is scoped to lib/: per-message accounting lives there *)
  let charge ?(attr = "") counter =
    [
      ( "lib/fx/charge.ml",
        "let run m snap = Metrics.add_count m Metrics." ^ counter ^ " (Array.length snap)" ^ attr );
    ]
  in
  let bad = Bandwidth.findings_of_report (bandwidth_report (charge "Words")) in
  check_bool "unannotated charge flagged" true
    (has_finding "bandwidth-charge" "not annotated [@@charge_site]" bad);
  let ok = bandwidth_report (charge ~attr:" [@@charge_site]" "Words") in
  check_int "annotated charge clean" 0 (List.length ok.Bandwidth.b_findings);
  check_int "site certified" 1 ok.Bandwidth.b_charge_sites;
  (* storage words are charged like message words; a message count is not a word charge *)
  let ckpt = Bandwidth.findings_of_report (bandwidth_report (charge "Checkpoint_words")) in
  check_bool "unannotated checkpoint charge flagged" true
    (has_finding "bandwidth-charge" "not annotated [@@charge_site]" ckpt);
  let count =
    bandwidth_report [ ("lib/fx/charge.ml", "let run m = Metrics.add_count m Metrics.Messages 1") ]
  in
  check_int "message count not flagged" 0 (List.length count.Bandwidth.b_findings);
  check_int "message count not a site" 0 count.Bandwidth.b_charge_sites

let test_bandwidth_json_report () =
  let json =
    Bandwidth.to_json
      (bandwidth_report
         [ ("fx/algo.ml", "module Msg = struct type t = int let words _ = 1 end") ])
  in
  let contains needle =
    let n = String.length needle in
    let rec at i = i + n <= String.length json && (String.sub json i n = needle || at (i + 1)) in
    at 0
  in
  check_bool "schema stamped" true (contains "repro-lint/bandwidth/1");
  check_bool "gate rendered" true (contains "\"all_pass\": true");
  check_bool "verdict present" true (contains "Algo.Msg")

let test_bandwidth_fixture_corpus () =
  let rules_in name =
    List.map
      (fun (f : Lint.finding) -> f.Lint.rule)
      (Bandwidth.findings_of_report (bandwidth_report (fixture_dir name)))
  in
  check_bool "bandwidth_bad flagged" true (List.mem "bandwidth-sound" (rules_in "bandwidth_bad"));
  check_int "bandwidth_ok clean" 0 (List.length (rules_in "bandwidth_ok"))

(* ------------------------------------------------------------------ *)
(* Baseline workflow *)

let two_aborts = "let f () = failwith \"a\"\nlet g () = failwith \"b\""

let test_baseline_parse () =
  match
    Lint.parse_baseline
      "# comment\n\nlib-abort lib/core/dp.ml 4 # unreachable arms\n"
  with
  | Ok [ e ] ->
      Alcotest.(check string) "rule" "lib-abort" e.Lint.b_rule;
      Alcotest.(check string) "file" "lib/core/dp.ml" e.Lint.b_file;
      check_int "count" 4 e.Lint.count;
      Alcotest.(check string) "why" "unreachable arms" e.Lint.justification
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  | Error msgs -> Alcotest.failf "parse failed: %s" (String.concat "; " msgs)

let test_baseline_rejects_garbage () =
  let bad text = Alcotest.(check bool) text true (Result.is_error (Lint.parse_baseline text)) in
  bad "no-such-rule lib/a.ml 1 # why";
  bad "lib-abort lib/a.ml 0 # why";
  bad "lib-abort lib/a.ml one # why";
  bad "lib-abort lib/a.ml 1";
  (* justification is mandatory *)
  bad "lib-abort lib/a.ml 1 # why\nlib-abort lib/a.ml 2 # dup"

let entry rule file count =
  { Lint.b_rule = rule; b_file = file; count; justification = "test"; b_line = 0 }

let test_baseline_suppresses_exact_count () =
  let fs = findings two_aborts in
  check_int "two findings" 2 (List.length fs);
  let out = Lint.apply_baseline [ entry "lib-abort" "lib/congest/fixture.ml" 2 ] fs in
  check_int "all suppressed" 0 (List.length out.Lint.fresh);
  check_int "nothing stale" 0 (List.length out.Lint.stale)

let test_baseline_reports_excess () =
  let fs = findings two_aborts in
  let out = Lint.apply_baseline [ entry "lib-abort" "lib/congest/fixture.ml" 1 ] fs in
  (* more findings than baselined: the whole group resurfaces *)
  check_int "excess reported" 2 (List.length out.Lint.fresh);
  check_int "nothing stale" 0 (List.length out.Lint.stale)

let test_baseline_detects_stale () =
  let fs = findings "let f () = failwith \"a\"" in
  let out = Lint.apply_baseline [ entry "lib-abort" "lib/congest/fixture.ml" 2 ] fs in
  check_int "suppressed" 0 (List.length out.Lint.fresh);
  (match out.Lint.stale with
  | [ (e, actual) ] ->
      check_int "expected" 2 e.Lint.count;
      check_int "actual" 1 actual
  | l -> Alcotest.failf "expected one stale entry, got %d" (List.length l));
  (* an entry for a file with no findings at all is stale too *)
  let out = Lint.apply_baseline [ entry "lib-abort" "lib/other.ml" 1 ] fs in
  check_int "unmatched entry stale" 1 (List.length out.Lint.stale);
  check_int "finding reported" 1 (List.length out.Lint.fresh)

let test_baseline_is_per_rule_and_file () =
  let fs = findings "let f () = failwith \"a\"\nlet s = List.sort compare xs" in
  let out = Lint.apply_baseline [ entry "lib-abort" "lib/congest/fixture.ml" 1 ] fs in
  (* the poly-compare finding is not covered by the lib-abort entry *)
  check_int "other rule still fresh" 1 (List.length out.Lint.fresh);
  Alcotest.(check string) "rule" "poly-compare" (List.hd out.Lint.fresh).Lint.rule

let test_parse_error_is_reported () =
  check_bool "syntax error surfaces" true
    (Result.is_error (Lint.lint_source ~file:"lib/broken.ml" "let let let"))

(* --update-baseline rendering: keep justifications, mark new groups,
   drop groups with no remaining findings *)

let test_render_baseline_keeps_justifications () =
  let fs = findings two_aborts in
  let old =
    [
      {
        Lint.b_rule = "lib-abort";
        b_file = "lib/congest/fixture.ml";
        count = 1;
        justification = "documented why";
        b_line = 0;
      };
      {
        Lint.b_rule = "hashtbl-order";
        b_file = "lib/gone.ml";
        count = 3;
        justification = "stale";
        b_line = 0;
      };
    ]
  in
  match Lint.parse_baseline (Lint.render_baseline ~old fs) with
  | Error msgs -> Alcotest.failf "rendered baseline does not parse: %s" (String.concat "; " msgs)
  | Ok [ e ] ->
      Alcotest.(check string) "rule" "lib-abort" e.Lint.b_rule;
      check_int "count refreshed" 2 e.Lint.count;
      (* the human-written why survives the rewrite; the vanished group is gone *)
      Alcotest.(check string) "justification kept" "documented why" e.Lint.justification
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_render_baseline_marks_new_entries () =
  match Lint.parse_baseline (Lint.render_baseline ~old:[] (findings two_aborts)) with
  | Error msgs -> Alcotest.failf "rendered baseline does not parse: %s" (String.concat "; " msgs)
  | Ok [ e ] -> Alcotest.(check string) "placeholder" "TODO justify" e.Lint.justification
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_render_baseline_roundtrip_is_quiet () =
  (* rendering then applying suppresses everything with nothing stale *)
  let fs = findings two_aborts in
  match Lint.parse_baseline (Lint.render_baseline ~old:[] fs) with
  | Error msgs -> Alcotest.failf "rendered baseline does not parse: %s" (String.concat "; " msgs)
  | Ok entries ->
      let out = Lint.apply_baseline entries fs in
      check_int "no fresh" 0 (List.length out.Lint.fresh);
      check_int "no stale" 0 (List.length out.Lint.stale)

let test_baseline_unjustified () =
  let text =
    "send-discipline lib/congest/engine.ml 3 # the engine is the charging path for its own counters\n\
     node-locality lib/congest/engine.ml 1 # TODO justify\n\
     hashtbl-order lib/congest/det_tbl.ml 2 # todo: look at this later\n"
  in
  match Lint.parse_baseline text with
  | Error msgs -> Alcotest.failf "baseline does not parse: %s" (String.concat "; " msgs)
  | Ok entries -> (
      match Lint.unjustified entries with
      | [ a; b ] ->
          Alcotest.(check string) "first offender" "node-locality" a.Lint.b_rule;
          check_int "first line number" 2 a.Lint.b_line;
          Alcotest.(check string) "second offender" "hashtbl-order" b.Lint.b_rule;
          check_int "second line number" 3 b.Lint.b_line
      | other -> Alcotest.failf "expected 2 unjustified entries, got %d" (List.length other))

let () =
  Alcotest.run "repro_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "unseeded-random" `Quick test_unseeded_random;
          Alcotest.test_case "ambient-env" `Quick test_ambient_env;
          Alcotest.test_case "unsafe-escape" `Quick test_unsafe_escape;
          Alcotest.test_case "lib-abort" `Quick test_lib_abort;
          Alcotest.test_case "catch-all" `Quick test_catch_all;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "hashtbl-order" `Quick test_hashtbl_order;
          Alcotest.test_case "positions" `Quick test_finding_positions;
          Alcotest.test_case "nested expressions" `Quick test_nested_expressions_are_walked;
          Alcotest.test_case "rule list" `Quick test_rule_list_is_consistent;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "escape chain" `Quick test_interproc_escape_chain;
          Alcotest.test_case "clean twin" `Quick test_interproc_clean_twin;
          Alcotest.test_case "send discipline" `Quick test_interproc_send_discipline;
          Alcotest.test_case "wrapped metrics path" `Quick test_interproc_wrapped_metrics_path;
          Alcotest.test_case "alias resolution" `Quick test_interproc_alias_resolution;
          Alcotest.test_case "non-callback exempt" `Quick test_interproc_non_callback_is_exempt;
          Alcotest.test_case "callgraph shape" `Quick test_callgraph_shape;
          Alcotest.test_case "fixture corpus" `Quick test_fixture_corpus;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "parse" `Quick test_baseline_parse;
          Alcotest.test_case "rejects garbage" `Quick test_baseline_rejects_garbage;
          Alcotest.test_case "suppresses exact count" `Quick test_baseline_suppresses_exact_count;
          Alcotest.test_case "reports excess" `Quick test_baseline_reports_excess;
          Alcotest.test_case "detects stale" `Quick test_baseline_detects_stale;
          Alcotest.test_case "per rule and file" `Quick test_baseline_is_per_rule_and_file;
          Alcotest.test_case "parse error" `Quick test_parse_error_is_reported;
          Alcotest.test_case "render keeps justifications" `Quick
            test_render_baseline_keeps_justifications;
          Alcotest.test_case "render marks new entries" `Quick test_render_baseline_marks_new_entries;
          Alcotest.test_case "render roundtrip" `Quick test_render_baseline_roundtrip_is_quiet;
          Alcotest.test_case "unjustified entries" `Quick test_baseline_unjustified;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "verdicts" `Quick test_bandwidth_verdicts;
          Alcotest.test_case "undercharge" `Quick test_bandwidth_undercharge;
          Alcotest.test_case "wrapper" `Quick test_bandwidth_wrapper;
          Alcotest.test_case "charge site" `Quick test_bandwidth_charge_site;
          Alcotest.test_case "json report" `Quick test_bandwidth_json_report;
          Alcotest.test_case "fixture corpus" `Quick test_bandwidth_fixture_corpus;
        ] );
    ]
