(* CLI driver for the model-compliance lint:

     lint [--format text|json] [--baseline FILE] [--only PASS]
          [--bandwidth-out FILE] [--bench-out FILE] [--update-baseline]
          <file-or-dir>...

   Directories are walked recursively for [.ml] files, skipping hidden
   directories (in sorted order, so output and baseline application are
   stable). Each file is parsed
   once; the single-file rules run per file and the whole file set
   feeds the interprocedural passes (symbol/call graph ->
   node-locality / send-discipline, and bandwidth on the same graph).
   [--only PASS] runs exactly one of rules/interproc/bandwidth (unknown
   pass names are a usage error, exit 2); baseline entries for the
   other passes are set aside rather than reported stale.
   [--bandwidth-out] additionally dumps the bandwidth verdict table as
   JSON; [--bench-out] writes
   BENCH_lint.json timing rows (whole-repo certifier wall-clock,
   plus a per-pass row for the bandwidth certifier) so analysis cost is
   tracked alongside the fault benches. [--update-baseline] rewrites
   the baseline file in place from the current findings instead of
   reporting them. A baseline entry still marked "TODO justify" fails
   the build. Exits 0 when clean, 1 on findings, stale baseline
   entries, or unjustified entries, 2 on usage/parse errors or
   nonexistent paths. *)

module Lint_core = Repro_lint.Lint_core
module Interproc = Repro_lint.Interproc
module Callgraph = Repro_lint.Callgraph
module Bandwidth = Repro_lint.Bandwidth

let usage =
  "lint [--format text|json] [--baseline FILE] [--only PASS] [--bandwidth-out FILE] \
   [--bench-out FILE] [--update-baseline] <file-or-dir>..."

let passes = [ "rules"; "interproc"; "bandwidth" ]

(* the rule ids each pass owns, for scoping the baseline under --only *)
let pass_rules = function
  | "rules" ->
      List.filter
        (fun id -> not (List.mem id Lint_core.interproc_rule_ids))
        Lint_core.rule_ids
  | "interproc" -> [ "node-locality"; "send-discipline" ]
  | "bandwidth" -> [ "bandwidth-sound"; "bandwidth-charge" ]
  | _ -> []

let rec collect path acc =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left (fun acc entry -> collect_entry (Filename.concat path entry) acc) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* Under _build the compiler writes and deletes files beside the copied
   sources while the lint walks them, so an entry that vanishes between
   [readdir] and [is_directory] is skipped, and hidden directories (the
   [.objs] of every library) are never entered. *)
and collect_entry path acc =
  if Filename.check_suffix path ".ml" then path :: acc
  else if String.starts_with ~prefix:"." (Filename.basename path) then acc
  else
    match Sys.is_directory path with
    | true -> collect path acc
    | false | (exception Sys_error _) -> acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let format = ref "text" in
  let baseline_path = ref "" in
  let bandwidth_out = ref "" in
  let bench_out = ref "" in
  let only = ref "" in
  let update_baseline = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--format",
        Arg.Symbol ([ "text"; "json" ], fun s -> format := s),
        " output format (default text)" );
      ("--baseline", Arg.Set_string baseline_path, "FILE suppress baselined findings");
      ( "--bandwidth-out",
        Arg.Set_string bandwidth_out,
        "FILE write the per-algorithm bandwidth verdict table as JSON" );
      ( "--only",
        Arg.Set_string only,
        "PASS run exactly one pass (rules|interproc|bandwidth)" );
      ( "--bench-out",
        Arg.Set_string bench_out,
        "FILE write a BENCH_lint.json timing row (certifier wall-clock)" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the --baseline file from current findings (new entries marked 'TODO \
         justify') and exit" );
      ( "--rules",
        Arg.Unit
          (fun () ->
            List.iter (fun (id, d) -> Printf.printf "%-16s %s\n" id d) Lint_core.rules;
            exit 0),
        " list rule ids and exit" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  if !update_baseline && !baseline_path = "" then begin
    prerr_endline "lint: --update-baseline requires --baseline FILE";
    exit 2
  end;
  if !only <> "" && not (List.mem !only passes) then begin
    (* same field-naming contract as the CLIs: name the bad value and
       enumerate what would have been accepted *)
    Printf.eprintf "lint: --only: unknown pass %S (expected one of %s)\n" !only
      (String.concat ", " passes);
    exit 2
  end;
  if !only <> "" && !update_baseline then begin
    prerr_endline "lint: --only cannot be combined with --update-baseline";
    exit 2
  end;
  let files =
    List.fold_left
      (fun acc p ->
        (* Sys.is_directory raises Sys_error on a nonexistent path *)
        try collect p acc
        with Sys_error _ ->
          Printf.eprintf "lint: no such file or directory: %s\n" p;
          exit 2)
      [] (List.rev !paths)
  in
  let files = List.sort_uniq String.compare files in
  (* parse each file once; both passes consume the structures *)
  let parsed = ref [] and broken = ref false in
  List.iter
    (fun file ->
      match Lint_core.parse_source ~file (read_file file) with
      | Ok structure -> parsed := (file, structure) :: !parsed
      | Error msg ->
          Printf.eprintf "lint: cannot parse %s:\n%s\n" file msg;
          broken := true)
    files;
  if !broken then exit 2;
  let parsed = List.rev !parsed in
  let run pass = !only = "" || !only = pass in
  let findings =
    if not (run "rules") then []
    else
      (* linear accumulation: rev_append per file, one final rev *)
      List.fold_left
        (fun acc (file, structure) ->
          List.rev_append (Lint_core.lint_structure ~file structure) acc)
        [] parsed
      |> List.rev
  in
  let write_out path json =
    if path <> "" then begin
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json)
    end
  in
  let started = Unix.gettimeofday () in
  let findings =
    if not (List.exists run [ "interproc"; "bandwidth" ]) then findings
    else begin
      let cg = Callgraph.build parsed in
      let t0 = Unix.gettimeofday () in
      let bandwidth_report =
        if run "bandwidth" then Some (Bandwidth.analyze cg parsed) else None
      in
      let bandwidth_wall = Unix.gettimeofday () -. t0 in
      (match bandwidth_report with
      | Some r when !bandwidth_out <> "" -> write_out !bandwidth_out (Bandwidth.to_json r)
      | _ -> ());
      if !bench_out <> "" then begin
        let wall = Unix.gettimeofday () -. started in
        let rows =
          [
            Printf.sprintf
              "{\"experiment\": \"lint\", \"files\": %d, \"bindings\": %d, \"callbacks\": \
               %d, \"wall_s\": %.3f}"
              (List.length cg.Callgraph.files)
              (List.length cg.Callgraph.order)
              (List.length cg.Callgraph.callbacks)
              wall;
          ]
          @
          match bandwidth_report with
          | Some r ->
              [
                Printf.sprintf
                  "{\"experiment\": \"lint-bandwidth\", \"candidates\": %d, \
                   \"charge_sites\": %d, \"wall_s\": %.3f}"
                  (List.length r.Bandwidth.b_verdicts)
                  r.Bandwidth.b_charge_sites bandwidth_wall;
              ]
          | None -> []
        in
        write_out !bench_out
          (Printf.sprintf "{\n  \"rows\": [\n    %s\n  ]\n}\n" (String.concat ",\n    " rows))
      end;
      findings
      @ (if run "interproc" then Interproc.findings cg else [])
      @ match bandwidth_report with Some r -> Bandwidth.findings_of_report r | None -> []
    end
  in
  let baseline_entries =
    match !baseline_path with
    | "" -> []
    | path when (not (Sys.file_exists path)) && !update_baseline -> []
    | path -> (
        match Lint_core.parse_baseline (read_file path) with
        | Ok entries -> entries
        | Error msgs ->
            List.iter prerr_endline msgs;
            exit 2)
  in
  (* under --only, baseline entries owned by the passes that did not run
     are set aside: they are neither suppressing nor stale *)
  let baseline_entries =
    if !only = "" then baseline_entries
    else
      List.filter
        (fun (e : Lint_core.baseline_entry) ->
          List.mem e.Lint_core.b_rule (pass_rules !only))
        baseline_entries
  in
  if !update_baseline then begin
    let text = Lint_core.render_baseline ~old:baseline_entries findings in
    let oc = open_out_bin !baseline_path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    let kept, fresh =
      List.partition
        (fun (f : Lint_core.finding) ->
          List.exists
            (fun (e : Lint_core.baseline_entry) ->
              e.Lint_core.b_rule = f.Lint_core.rule && e.Lint_core.b_file = f.Lint_core.file)
            baseline_entries)
        findings
    in
    Printf.eprintf
      "lint: %s updated: %d finding(s) baselined (%d under existing entries, %d new — grep \
       'TODO justify' and write justifications)\n"
      !baseline_path (List.length findings) (List.length kept) (List.length fresh);
    exit 0
  end;
  let unjustified = Lint_core.unjustified baseline_entries in
  List.iter
    (fun (e : Lint_core.baseline_entry) ->
      Printf.eprintf
        "lint: %s:%d: unjustified baseline entry: %s %s %d # %s — write a real \
         justification\n"
        !baseline_path e.Lint_core.b_line e.Lint_core.b_rule e.Lint_core.b_file
        e.Lint_core.count e.Lint_core.justification)
    unjustified;
  let outcome =
    match !baseline_path with
    | "" -> { Lint_core.fresh = findings; stale = [] }
    | _ -> Lint_core.apply_baseline baseline_entries findings
  in
  (match !format with
  | "json" ->
      Format.printf "[@[<v>";
      List.iteri
        (fun i f ->
          if i > 0 then Format.printf ",@,";
          Format.printf "%a" Lint_core.pp_finding_json f)
        outcome.Lint_core.fresh;
      Format.printf "@]]@."
  | _ ->
      List.iter
        (fun f -> Format.printf "%a@." Lint_core.pp_finding_text f)
        outcome.Lint_core.fresh);
  List.iter
    (fun ((e : Lint_core.baseline_entry), actual) ->
      Printf.eprintf
        "lint: stale baseline entry: %s %s expects %d finding(s) but %d exist — shrink the \
         baseline\n"
        e.Lint_core.b_rule e.Lint_core.b_file e.Lint_core.count actual)
    outcome.Lint_core.stale;
  let fresh = List.length outcome.Lint_core.fresh in
  if fresh > 0 then
    Printf.eprintf "lint: %d finding(s) over %d file(s); see DESIGN.md for the rule table\n"
      fresh (List.length files);
  if fresh > 0 || outcome.Lint_core.stale <> [] || unjustified <> [] then exit 1
