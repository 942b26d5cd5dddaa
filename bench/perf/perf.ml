(* Repository benchmark (bench/perf/README.md has the workloads, the
   metrics and how they interact).

   perf.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--json F] [--chrome F] [--out DIR]
       one workload in this process; the last stdout line is the
       result object {"correct", "attempted", "failed", "metrics"}
   perf.exe run [--workload W]... [--seed S | --holdout] [--seconds T] [--runs K] [--trace] [--smoke] [--out DIR]
       each run of each workload in a fresh process; prints the metric
       table and writes DIR/result-seed<S>[-trace].json
   perf.exe compare A.json B.json [--benchmark BENCHMARK.json]
       verdict per (metric, workload) under the benchmark's bounds *)

module W = Workloads
module M = Repro_congest.Metrics

let default_seed = 1

(* inputs nobody tuned against: a claimed gain is rechecked here *)
let holdout_seed = 20261
let default_seconds = 12.
let default_out = "bench/perf/out"

(* ------------------------------------------------------------------ *)
(* metric catalogue; BENCHMARK.json must agree (the smoke test checks) *)

let end_to_end =
  [ ("solve_s", "s"); ("request_p50_us", "us"); ("request_p90_us", "us"); ("alloc_mwords", "Mwords"); ("setup_s", "s") ]

(* stages timed inside a pass; graph.generate only ever runs in set-up *)
let pass_stages =
  W.[ s_decompose; s_dl; s_sssp; s_cdl; s_girth; s_matching; s_sync; s_reliable; s_recovery; s_async; s_save; s_open; s_answer; s_verify ]

let setup_stages = W.[ s_generate; s_decompose; s_dl; s_cdl; s_save; s_open ]

(* the round labels the workloads charge (Metrics.breakdown); the rest
   is summed into rounds.other *)
let round_labels =
  [
    "treedec/level"; "treedec/ccd"; "dl/level"; "cdl/simulated"; "bfs-tree"; "stream"; "bellman-ford"; "girth/cdl";
    "girth/trials"; "matching/sep"; "matching/leaf"; "matching/augment";
  ]

let round_metric l = "rounds." ^ String.map (fun c -> if c = '/' then '-' else c) l

(* counts that repeat exactly for a given seed *)
let exact_counts =
  [
    ("sim.rounds", "rounds");
    ("sim.messages", "messages");
    ("treedec.width", "count");
    ("treedec.levels", "count");
    ("treedec.max_t", "count");
    ("core.dl.label_words_max", "words");
    ("congest.retransmissions", "count");
    ("congest.async.pulses", "count");
    ("congest.recoveries", "count");
    ("serve.store_bytes", "bytes");
  ]
  @ List.map (fun l -> (round_metric l, "rounds")) (round_labels @ [ "other" ])

(* per-layer metrics measured without spans, in every run *)
let info =
  exact_counts
  @ [
      ("congest.msgs_per_s", "1/s");
      ("congest.transport.goodput", "ratio");
      ("congest.async.safe_per_msg", "ratio");
      ("serve.qps", "1/s");
      ("serve.request_p99_us", "us");
      ("serve.cache.hit_ratio", "ratio");
      ("serve.cache.evictions", "count");
      ("serve.decodes", "count");
      ("pipeline.scaling_exponent", "1");
      ("ocaml.peak_heap_mb", "MiB");
      ("ocaml.minor_collections", "count");
      ("ocaml.major_collections", "count");
      ("ocaml.promoted_mwords", "Mwords");
    ]

(* per-layer metrics from the spans of a traced run *)
let span_metrics =
  List.concat_map
    (fun st ->
      let n = Span.name st in
      [ (n ^ ".busy_s", "s"); (n ^ ".self_s", "s"); (n ^ ".share", "ratio"); (n ^ ".mwords", "Mwords") ])
    pass_stages
  @ List.map (fun st -> (Span.name st ^ ".setup_s", "s")) setup_stages
  @ [ ("serve.store_save.mb_per_s", "MB/s"); ("bench.stage_coverage", "ratio"); ("bench.trace_overhead_pct", "%") ]

let per_layer = span_metrics @ info

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt name per_layer)

(* ------------------------------------------------------------------ *)
(* one workload, in this process *)

let s_setup = Span.stage "bench.setup"

(* request latencies in execution order (pass k holds [k * requests,
   (k + 1) * requests)), kept without allocating per request *)
type samples = { mutable buf : int array; mutable len : int }

let push s x =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0 in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

type pass = { wall : int; words : float; minor : int; major : int; promoted : float }

type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  info : (string * float) list;
  spans : (string * float) list;  (** traced runs only *)
  passes : int;
  requests : int;  (** per pass: the samples behind the percentiles *)
}

let secs ns = float_of_int ns /. 1e9
let fl = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

(* least-squares slope of log t against log n *)
let loglog_slope pts =
  let k = fl (List.length pts) in
  let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0. l /. k in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. lx ly in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.)) 0. lx in
  ratio sxy sxx

let measure (w : W.t) ~seed ~seconds ~trace ~scale ~scratch =
  let ctx = { W.seed; scale; scratch } in
  let span_ns = if trace then Span.cost_ns () else 0. in
  Span.enabled := trace;
  (* set-up several times — at least five, and for half a second when
     it is cheap: setup_s is the median, the last instance runs (a traced
     run reports the last set-up's stages) *)
  let setup_times = ref [] and inst = ref None in
  while
    match (scale, List.length !setup_times) with
    | W.Smoke, k -> k < 1
    | W.Full, k -> k < 5 || (k < 200 && List.fold_left ( +. ) 0. !setup_times < 0.5)
  do
    inst := None;
    Span.reset ();
    let t0 = Span.now_ns () in
    inst := Some (Span.with_ s_setup (fun () -> w.W.setup ctx));
    setup_times := secs (Span.now_ns () - t0) :: !setup_times
  done;
  let inst = Option.get !inst in
  let setup_busy = List.map (fun st -> (Span.name st ^ ".setup_s", secs (Span.agg st).Span.busy)) setup_stages in
  Span.reset ();
  (* every run starts timing from the same compacted heap *)
  Gc.compact ();
  (* closed loop: a pass sends each request when the previous one is
     done. Passes repeat — at least three — while another one ends nearer
     to [seconds] of timed work than stopping does. *)
  let r = inst.W.requests in
  let min_passes = match scale with W.Full -> 3 | W.Smoke -> 1 in
  let lat = { buf = Array.make 4096 0; len = 0 } in
  let passes = ref [] in
  let attempted = ref 0 and failed = ref 0 and timed = ref 0 in
  let budget = int_of_float (seconds *. 1e9) in
  while List.length !passes < min_passes || !timed + (!timed / List.length !passes / 2) < budget do
    let g0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let t0 = Span.now_ns () in
    for i = 0 to r - 1 do
      let r0 = Span.now_ns () in
      if trace then Span.with_ ~label:(inst.W.label i) Span.job (fun () -> inst.W.request i) else inst.W.request i;
      push lat (Span.now_ns () - r0)
    done;
    let wall = Span.now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    let g1 = Gc.quick_stat () in
    timed := !timed + wall;
    passes :=
      {
        wall;
        words;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      }
      :: !passes;
    (* the oracle gate, outside the timed region *)
    let a, f = Span.with_ W.s_verify inst.W.verify in
    attempted := !attempted + a;
    failed := !failed + f
  done;
  Span.enabled := false;
  (* Each run keeps its fastest pass. Every pass sends the same
     requests, and a shared host only ever slows one down — on a 2-vCPU
     virtual machine a fixed loop ran 40-70 % slower in bursts of a
     second, and whole minutes ran ~10 % slower — so the fastest pass,
     its own GC work included, is the run's estimate of the program's
     cost (README.md has the measured spreads). *)
  let passes = Array.of_list (List.rev !passes) in
  let best = ref 0 in
  Array.iteri (fun k p -> if p.wall < passes.(!best).wall then best := k) passes;
  let fastest = passes.(!best) in
  let latency = Array.init r (fun i -> fl lat.buf.((!best * r) + i)) in
  let sorted = Array.copy latency in
  Array.sort Float.compare sorted;
  let pct p = Stats.percentile_sorted sorted p /. 1e3 in
  let solve_s = secs fastest.wall in
  let e2e =
    [
      ("solve_s", solve_s);
      ("request_p50_us", pct 0.5);
      ("request_p90_us", pct 0.9);
      ("alloc_mwords", fastest.words /. 1e6);
      ("setup_s", Stats.median !setup_times);
    ]
  in
  let sim = inst.W.sim () in
  let given = inst.W.counts () in
  let count name = Option.value ~default:0. (List.assoc_opt name given) in
  let breakdown = M.breakdown sim in
  let messages = fl (M.messages sim) in
  let hits = fl (M.cache_hits sim) and misses = fl (M.cache_misses sim) in
  let queries = fl inst.W.queries in
  let sizes = List.init r (fun i -> fl (inst.W.size i)) in
  let info =
    [
      ("sim.rounds", fl (M.rounds sim));
      ("sim.messages", messages);
      ("treedec.width", count "treedec.width");
      ("treedec.levels", count "treedec.levels");
      ("treedec.max_t", count "treedec.max_t");
      ("core.dl.label_words_max", count "core.dl.label_words_max");
      ("congest.retransmissions", fl (M.retransmissions sim));
      ("congest.async.pulses", fl (M.pulses sim));
      ("congest.recoveries", fl (M.recoveries sim));
      ("serve.store_bytes", count "serve.store_bytes");
    ]
    @ List.map (fun l -> (round_metric l, fl (Option.value ~default:0 (List.assoc_opt l breakdown)))) round_labels
    @ [
        ( round_metric "other",
          fl (List.fold_left (fun acc (l, r) -> if List.mem l round_labels then acc else acc + r) 0 breakdown) );
        ("congest.msgs_per_s", ratio messages solve_s);
        ("congest.transport.goodput", ratio messages (messages +. fl (M.retransmissions sim)));
        ("congest.async.safe_per_msg", ratio (fl (M.safe_messages sim)) messages);
        ("serve.qps", ratio queries solve_s);
        ("serve.request_p99_us", if queries > 0. then pct 0.99 else 0.);
        ("serve.cache.hit_ratio", ratio hits (hits +. misses));
        ("serve.cache.evictions", fl (M.cache_evictions sim));
        ("serve.decodes", misses);
        ( "pipeline.scaling_exponent",
          if List.length (List.sort_uniq compare sizes) < 2 then 0.
          else loglog_slope (List.mapi (fun i n -> (n, latency.(i))) sizes) );
        ("ocaml.peak_heap_mb", fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        ("ocaml.minor_collections", fl fastest.minor);
        ("ocaml.major_collections", fl fastest.major);
        ("ocaml.promoted_mwords", fastest.promoted /. 1e6);
      ]
  in
  let spans =
    if not trace then []
    else begin
      (* stage figures per pass, averaged over the run's passes *)
      let np = fl (Array.length passes) in
      let pass_s = secs !timed /. np in
      let busy st = secs (Span.agg st).Span.busy /. np in
      (* saves in the passes if any (ptk-scale, serve-cold), else set-up's *)
      let save_s = if busy W.s_save > 0. then busy W.s_save else List.assoc "serve.store_save.setup_s" setup_busy in
      (* spans inside the passes; the verify spans run outside them *)
      let pass_spans = List.fold_left (fun acc st -> acc + Span.count st) (Span.count Span.job) pass_stages - Span.count W.s_verify in
      List.concat_map
        (fun st ->
          let a = Span.agg st and n = Span.name st in
          [
            (n ^ ".busy_s", busy st);
            (n ^ ".self_s", secs a.Span.self /. np);
            (n ^ ".share", ratio (busy st) pass_s);
            (n ^ ".mwords", a.Span.words /. 1e6 /. np);
          ])
        pass_stages
      @ setup_busy
      @ [
          ("serve.store_save.mb_per_s", ratio (count "serve.store_bytes" /. 1e6) save_s);
          ("bench.stage_coverage", ratio (fl !Span.job_covered) (fl !Span.job_wall));
          ("bench.trace_overhead_pct", 100. *. ratio (fl pass_spans *. span_ns) (fl !timed));
        ]
    end
  in
  { attempted = !attempted; failed = !failed; e2e; info; spans; passes = Array.length passes; requests = r }

(* ------------------------------------------------------------------ *)
(* JSON shapes *)

let metric_obj l = Json.Obj (List.map (fun (n, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ])) l)
let num_obj l = Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) l)

(* the result line: end-to-end metrics, or per-layer ones when traced *)
let result_line o ~trace =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (fl o.attempted));
      ("failed", Json.Num (fl o.failed));
      ("metrics", metric_obj (if trace then o.spans @ o.info else o.e2e));
    ]

let detail o ~workload ~seed ~trace =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (fl seed));
      ("trace", Json.Bool trace);
      ("attempted", Json.Num (fl o.attempted));
      ("failed", Json.Num (fl o.failed));
      ("passes", Json.Num (fl o.passes));
      ("requests", Json.Num (fl o.requests));
      ("e2e", num_obj o.e2e);
      ("info", num_obj o.info);
      ("spans", num_obj o.spans);
    ]

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* command line *)

exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* [options args ~flags ~valued]: "--name value" and bare "--flag"
   pairs, in order; positional arguments are returned separately *)
let options args ~flags ~valued =
  let rec go opts pos = function
    | [] -> (List.rev opts, List.rev pos)
    | a :: rest when List.mem a flags -> go ((a, "") :: opts) pos rest
    | a :: v :: rest when List.mem a valued -> go ((a, v) :: opts) pos rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage "unknown or incomplete option %s" a
    | a :: rest -> go opts (a :: pos) rest
  in
  go [] [] args

let last opts name = List.fold_left (fun acc (k, v) -> if k = name then Some v else acc) None opts
let all opts name = List.filter_map (fun (k, v) -> if k = name then Some v else None) opts

let int_opt opts name default =
  match last opts name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage "%s: expected an integer, got %S" name v)

let float_opt opts name default =
  match last opts name with
  | None -> default
  | Some v -> (
      match float_of_string_opt v with
      | Some f when f >= 0. -> f
      | _ -> usage "%s: expected a non-negative number, got %S" name v)

let workload name =
  match List.find_opt (fun w -> w.W.name = name) W.all with
  | Some w -> w
  | None -> usage "unknown workload %S (one of: %s)" name (String.concat ", " (List.map (fun w -> w.W.name) W.all))

let print_metrics l = List.iter (fun (n, v) -> Printf.printf "  %-40s %16.6g %s\n" n v (unit_of n)) l

(* perf.exe --workload W ... : one workload in this process *)
let cmd_one args =
  let opts, pos =
    options args ~flags:[ "--smoke" ] ~valued:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--chrome"; "--out" ]
  in
  if pos <> [] then usage "unexpected argument %S" (List.hd pos);
  let w = workload (match last opts "--workload" with Some w -> w | None -> usage "--workload is required") in
  let seed = int_opt opts "--seed" default_seed in
  let seconds = float_opt opts "--seconds" default_seconds in
  let trace =
    match last opts "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> usage "--trace: expected 0 or 1, got %S" v
  in
  let scale = if last opts "--smoke" = None then W.Full else W.Smoke in
  let scratch = Filename.concat (Option.value ~default:default_out (last opts "--out")) (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p scratch;
  let o =
    Fun.protect ~finally:(fun () -> remove_tree scratch) (fun () -> measure w ~seed ~seconds ~trace ~scale ~scratch)
  in
  Option.iter (fun path -> write_file path (Json.to_string (detail o ~workload:w.W.name ~seed ~trace))) (last opts "--json");
  (match last opts "--chrome" with
  | Some path when trace -> Span.write_chrome path ~meta:[ ("workload", Json.Str w.W.name); ("seed", Json.Num (fl seed)) ]
  | _ -> ());
  Printf.printf "%s seed=%d%s: %d passes of %d requests, %d/%d operations failed\n" w.W.name seed
    (if trace then " (traced)" else "") o.passes o.requests o.failed o.attempted;
  print_metrics ((if trace then o.spans else o.e2e) @ o.info);
  print_endline (Json.to_string (result_line o ~trace));
  if o.failed = 0 then 0 else 1

(* ---- run: every workload, each run in a fresh process ---- *)

(* a child's report comes back through its --json file; its stderr
   (oracle mismatches) passes through *)
let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin null Unix.stderr)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

let summary values =
  let q1, q3 = Stats.quartiles values in
  Json.Obj
    [
      ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ("median", Json.Num (Stats.median values));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
    ]

(* per metric of a catalogue, the summary of every run's value *)
let summaries catalogue section runs =
  if runs = [] then Json.Obj []
  else Json.Obj (List.map (fun (n, _) -> (n, summary (List.map (fun r -> Json.to_num (Json.member n (Json.member section r))) runs))) catalogue)

let exact r = Json.Obj (List.map (fun (n, _) -> (n, Json.member n (Json.member "info" r))) exact_counts)

(* BENCHMARK.json lists exactly the workloads and the metrics the
   benchmark prints, with their units *)
let check_catalogue ~benchmark results =
  let b = Json.of_file benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" b)) in
  if names <> List.map (fun w -> w.W.name) W.all then problem "the workloads of %s are not the benchmark's" benchmark;
  List.iter
    (fun (section, catalogue, printed) ->
      let listed = Json.to_list (Json.member section b) in
      List.iter
        (fun (name, _) ->
          if not (List.exists (fun m -> Json.member "name" m = Json.Str name) listed) then
            problem "%s: %s is printed but not listed" section name)
        catalogue;
      List.iter
        (fun m ->
          let name = Json.to_str (Json.member "name" m) and u = Json.to_str (Json.member "unit" m) in
          if List.assoc_opt name catalogue <> Some u then problem "%s: %s [%s] is not a metric of the benchmark" section name u;
          List.iter
            (fun (w, plain, traced) ->
              if not (List.exists (fun r -> Float.is_finite (Json.to_num (Json.member name r))) (printed plain traced)) then
                problem "%s: %s missing from %s" section name w)
            results)
        listed)
    [
      ("end_to_end", end_to_end, fun plain _ -> [ Json.member "e2e" plain ]);
      ("per_layer", per_layer, fun _ traced -> [ Json.member "spans" traced; Json.member "info" traced ]);
    ];
  List.rev !problems

let cmd_run args =
  let opts, pos =
    options args ~flags:[ "--trace"; "--smoke"; "--holdout" ]
      ~valued:[ "--workload"; "--seed"; "--seconds"; "--runs"; "--out"; "--benchmark" ]
  in
  if pos <> [] then usage "unexpected argument %S" (List.hd pos);
  let smoke = last opts "--smoke" <> None in
  let trace = smoke || last opts "--trace" <> None in
  let seed = if last opts "--holdout" <> None then holdout_seed else int_opt opts "--seed" default_seed in
  let seconds = float_opt opts "--seconds" (if smoke then 0. else default_seconds) in
  let runs = max 1 (int_opt opts "--runs" 1) in
  let out = Option.value ~default:default_out (last opts "--out") in
  let selected = match all opts "--workload" with [] -> W.all | l -> List.map workload l in
  mkdir_p out;
  let child w k ~traced =
    let tag = Printf.sprintf "%s-seed%d-run%d%s" w.W.name seed k (if traced then "-trace" else "") in
    let json = Filename.concat out (tag ^ ".json") in
    let args =
      [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace";
        (if traced then "1" else "0"); "--json"; json; "--out"; out ]
      @ (if traced then [ "--chrome"; Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" w.W.name seed) ] else [])
      @ if smoke then [ "--smoke" ] else []
    in
    let code = spawn args in
    if not (Sys.file_exists json) then usage "run %s exited with code %d and no result" tag code;
    let j = Json.of_file json in
    Sys.remove json;
    if not smoke then
      Printf.eprintf "%s: %.0f passes, %.0f/%.0f operations failed\n%!" tag (Json.to_num (Json.member "passes" j))
        (Json.to_num (Json.member "failed" j)) (Json.to_num (Json.member "attempted" j));
    j
  in
  let results =
    List.map
      (fun w ->
        let plain = List.init runs (fun k -> child w k ~traced:false) in
        let traced = if trace then List.init runs (fun k -> child w k ~traced:true) else [] in
        (w, plain, traced))
      selected
  in
  let sum key l = List.fold_left (fun acc r -> acc +. Json.to_num (Json.member key r)) 0. l in
  let solve l = Stats.median (List.map (fun r -> Json.to_num (Json.member "solve_s" (Json.member "e2e" r))) l) in
  let per_workload =
    List.map
      (fun (w, plain, traced) ->
        let every = plain @ traced in
        let attempted = sum "attempted" every and failed = sum "failed" every in
        let counts = exact (List.hd plain) in
        ( w.W.name,
          Json.Obj
            [
              ("attempted", Json.Num attempted);
              ("failed", Json.Num failed);
              ("error_rate", Json.Num (ratio failed attempted));
              ("requests", Json.member "requests" (List.hd plain));
              ("e2e", summaries end_to_end "e2e" plain);
              ("info", summaries info "info" plain);
              ("spans", summaries span_metrics "spans" traced);
              ("counts", counts);
              ("counts_identical", Json.Bool (List.for_all (fun r -> exact r = counts) every));
              (* the tracing overhead measured as traced runs against untraced ones *)
              ("trace_delta_pct", Json.Num (if traced = [] then nan else 100. *. ((solve traced /. solve plain) -. 1.)));
            ] ))
      results
  in
  let file =
    Filename.concat out
      (Printf.sprintf "result-seed%d%s%s.json" seed (if trace then "-trace" else "") (if smoke then "-smoke" else ""))
  in
  write_file file
    (Json.pretty ~depth:4
       (Json.Obj
          [
            ("seed", Json.Num (fl seed));
            ("seconds", Json.Num seconds);
            ("runs", Json.Num (fl runs));
            ("scale", Json.Str (if smoke then "smoke" else "full"));
            ("workloads", Json.Obj per_workload);
          ])
    ^ "\n");
  (* the table: one row per metric, the median over runs per workload *)
  let row label unit cells = Printf.printf "%-34s %-7s%s\n" label unit (String.concat "" (List.map (Printf.sprintf " %13s") cells)) in
  let cell v = if Float.is_finite v then Printf.sprintf "%.6g" v else "-" in
  let field key (_, r) = Json.to_num (Json.member key r) in
  let median section name (_, r) = Json.to_num (Json.member "median" (Json.member name (Json.member section r))) in
  let rows section catalogue =
    List.iter
      (fun (n, u) ->
        if List.exists (fun r -> median section n r <> 0.) per_workload then
          row n u (List.map (fun r -> cell (median section n r)) per_workload))
      catalogue
  in
  Printf.printf "\nseed %d, %g s per run, %d run(s) per workload: each run's fastest pass, medians over runs\n" seed
    seconds runs;
  row "metric" "unit" (List.map fst per_workload);
  rows "e2e" end_to_end;
  row "error_rate" "ratio" (List.map (fun r -> cell (field "error_rate" r)) per_workload);
  row "requests per pass" "count" (List.map (fun r -> cell (field "requests" r)) per_workload);
  Printf.printf "\nper layer, untraced (metrics not shown read 0 everywhere)\n";
  rows "info" info;
  if trace then begin
    Printf.printf "\nper layer, traced runs\n";
    rows "spans" span_metrics;
    row "solve_s traced vs untraced" "%" (List.map (fun r -> cell (field "trace_delta_pct" r)) per_workload)
  end;
  Printf.printf "\nwrote %s\n" file;
  let failed = List.exists (fun r -> field "failed" r > 0.) per_workload in
  if failed then prerr_endline "oracle failures: see the mismatches above";
  let problems =
    if not smoke then []
    else
      check_catalogue
        ~benchmark:(Option.value ~default:"BENCHMARK.json" (last opts "--benchmark"))
        (List.map (fun (w, plain, traced) -> (w.W.name, List.hd plain, List.hd traced)) results)
  in
  List.iter (Printf.eprintf "smoke: %s\n") problems;
  if failed || problems <> [] then 1 else 0

(* ---- compare: verdicts under the benchmark's bounds ---- *)

(* [verdict ~better ~bound a b]: B's runs against A's (the parent's) *)
let verdict ~better ~bound a b =
  let ma = Stats.median a and mb = Stats.median b in
  (* [gain x y] > 0 when y is better than x *)
  let gain x y = if better = "higher" then y -. x else x -. y in
  let q1, q3 = Stats.quartiles a in
  (* run i of A against run i of B *)
  let rec pair a b = match (a, b) with x :: a, y :: b -> (x, y) :: pair a b | _ -> [] in
  let pairs = pair a b in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.) pairs) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) a) b in
  if -.gain ma mb > bound *. Float.abs ma then "regressed"
  else if pairs <> [] && 10 * wins >= 9 * List.length pairs && gain ma mb > q3 -. q1 then "improved"
  else if q3 -. q1 > bound *. Float.abs ma && not all_better then "unresolved"
  else "unchanged"

let cmd_compare args =
  let opts, pos = options args ~flags:[] ~valued:[ "--benchmark" ] in
  let a, b = match pos with [ a; b ] -> (a, b) | _ -> usage "compare takes two result files" in
  let bench = Json.of_file (Option.value ~default:"BENCHMARK.json" (last opts "--benchmark")) in
  let workloads f = match Json.member "workloads" (Json.of_file f) with Json.Obj l -> l | _ -> usage "%s has no workloads" f in
  let wb = workloads b in
  let regressed = ref false in
  Printf.printf "%-13s %-15s %13s %13s %8s  %s\n" "workload" "metric" "A median" "B median" "change" "verdict";
  List.iter
    (fun (w, ra) ->
      match List.assoc_opt w wb with
      | None -> ()
      | Some rb ->
          List.iter
            (fun m ->
              let name = Json.to_str (Json.member "name" m) in
              let values r = List.map Json.to_num (Json.to_list (Json.member "values" (Json.member name (Json.member "e2e" r)))) in
              match (values ra, values rb) with
              | [], _ | _, [] -> ()
              | va, vb ->
                  let v = verdict ~better:(Json.to_str (Json.member "better" m)) ~bound:(Json.to_num (Json.member "bound" m)) va vb in
                  if v = "regressed" then regressed := true;
                  let ma = Stats.median va and mb = Stats.median vb in
                  Printf.printf "%-13s %-15s %13.6g %13.6g %+7.1f%%  %s\n" w name ma mb (100. *. (mb -. ma) /. ma) v)
            (Json.to_list (Json.member "end_to_end" bench));
          let ca = Json.member "counts" ra and cb = Json.member "counts" rb in
          if ca = cb then Printf.printf "%-13s exact counts identical\n" w
          else
            List.iter
              (fun (n, _) ->
                let x = Json.member n ca and y = Json.member n cb in
                if x <> y then Printf.printf "%-13s count %s: %s -> %s\n" w n (Json.to_string x) (Json.to_string y))
              exact_counts)
    (workloads a);
  if !regressed then 1 else 0

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: rest -> cmd_run rest
      | "compare" :: rest -> cmd_compare rest
      | rest -> cmd_one rest
    with Usage msg | Sys_error msg | Json.Parse_error msg ->
      prerr_endline ("perf: " ^ msg);
      2
  in
  exit code
