(* The benchmark's workloads. Each one turns a seed into inputs (its
   set-up), then exposes one pass of closed-loop requests — a job, or a
   64-query serving request — that the runner times, and an oracle
   check the runner calls after every pass, outside the timed region.

   Inputs come only from [Repro_graph.Generators]; the program under
   test receives the generated graphs and nothing else. *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Traversal = Repro_graph.Traversal
module Girth_ref = Repro_graph.Girth_ref
module Matching_ref = Repro_graph.Matching_ref
module Metrics = Repro_congest.Metrics
module Fault = Repro_congest.Fault
module Recovery = Repro_congest.Recovery
module Bellman_ford = Repro_congest.Bellman_ford
module Bfs_tree = Repro_congest.Bfs_tree
module Async_engine = Repro_congest.Async_engine
module Build = Repro_treedec.Build
module Decomposition = Repro_treedec.Decomposition
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp
module Stateful = Repro_core.Stateful
module Product = Repro_core.Product
module Cdl = Repro_core.Cdl
module Girth = Repro_core.Girth
module Matching = Repro_core.Matching
module Store = Repro_serve.Store
module Query = Repro_serve.Query
module Cache = Repro_serve.Cache

(* stage spans, one per public entry point the benchmark calls *)
let s_generate = Span.stage "graph.generate"
let s_decompose = Span.stage "treedec.decompose"
let s_dl = Span.stage "core.dl_build"
let s_sssp = Span.stage "core.sssp"
let s_cdl = Span.stage "core.cdl_build"
let s_girth = Span.stage "core.girth"
let s_matching = Span.stage "core.matching"
let s_sync = Span.stage "congest.sync"
let s_reliable = Span.stage "congest.reliable"
let s_recovery = Span.stage "congest.recovery"
let s_async = Span.stage "congest.async"
let s_save = Span.stage "serve.store_save"
let s_open = Span.stage "serve.store_open"
let s_answer = Span.stage "serve.answer"
let s_verify = Span.stage "bench.verify"

(* [Smoke] shrinks every workload to well under a second, for the
   test that keeps the benchmark from rotting. *)
type scale = Full | Smoke

type ctx = { seed : int; scale : scale; scratch : string (* directory for store files *) }

type instance = {
  requests : int;  (** closed-loop requests in one pass *)
  queries : int;  (** serving queries in one pass; 0 when requests are jobs *)
  request : int -> unit;  (** runs request [i] of the pass (timed) *)
  label : int -> string;  (** request [i]'s name in the trace *)
  size : int -> int;  (** input size of request [i] (ptk-scale fits its slope) *)
  verify : unit -> int * int;  (** after a pass: (operations checked, failed) *)
  sim : unit -> Metrics.t;  (** simulated CONGEST cost of the latest pass *)
  counts : unit -> (string * float) list;  (** layer counts of the latest pass *)
}

(* why each workload exists is in BENCHMARK.json and README.md *)
type t = { name : string; setup : ctx -> instance }

(* ------------------------------------------------------------------ *)
(* inputs *)

(* Every graph's skeleton, and the message-loss schedule, come from
   fixed structure seeds, so the decomposition (which sees the skeleton
   only), the label sizes and the retransmissions are the same work at
   every seed. [ctx.seed] draws everything else: weights, edge colours,
   crash victims, query streams and oracle samples. With random
   skeletons and loss the work itself moved by 7-25 % between seeds
   (the width ranges over 13-19 at n = 1024), which would drown the
   changes the benchmark is for. *)
let structure k = 7919 * (k + 1)

(* the library's own randomness (separator sampling, girth trials) is a
   setting of the program, not an input *)
let program_seed = 1

let derive ctx k = (ctx.seed * 1_000_003) + k
let rng ctx k = Random.State.make [| ctx.seed; k |]
let ptk ~structure n = Generators.partial_k_tree ~seed:structure n 3 ~keep:0.6

(* weighted directed partial 3-tree: the paper's target graphs *)
let weighted_ptk ~structure ~seed n = Generators.bidirect ~seed ~max_weight:9 (ptk ~structure n)

(* edge labels for the constrained-walk applications: a hash of the
   edge id, so they do not depend on traversal order *)
let colour ~seed ~colours g = Digraph.with_labels g (fun e -> Hashtbl.hash (seed, e.Digraph.id) mod colours)

let memo f =
  let tbl = Hashtbl.create 64 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.add tbl k v;
        v

let get = function Some x -> x | None -> invalid_arg "Workloads: request has not run"

(* one verdict per operation; a failure names what disagreed *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "oracle mismatch: %s\n%!" what
  end

(* a job's simulated-cost counters must repeat exactly in every pass *)
let repeats first i m =
  let json = Metrics.to_json m in
  if first.(i) = None then first.(i) <- Some json;
  first.(i) = Some json

(* [sample_pairs rng n k]: k vertex pairs drawn from [0, n) *)
let sample_pairs rng n k = Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))

(* labels decode d(u, v) for every sampled pair; [dij] is the
   centralized oracle's (memoized) single-source distances *)
let labels_exact dij labels pairs =
  Array.for_all (fun (u, v) -> Labeling.decode labels.(u) labels.(v) = (dij u).(v)) pairs

let merged ms =
  let into = Metrics.create () in
  Array.iter (function Some m -> Metrics.merge ~into m | None -> ()) ms;
  into

let max_over f arr = Array.fold_left (fun acc x -> match x with Some x -> max acc (f x) | None -> acc) 0 arr
let fl = float_of_int

let treedec_counts reports =
  [
    ("treedec.width", fl (max_over (fun r -> Decomposition.width r.Build.decomposition) reports));
    ("treedec.levels", fl (max_over (fun r -> r.Build.levels) reports));
    ("treedec.max_t", fl (max_over (fun r -> r.Build.max_t) reports));
  ]

(* ------------------------------------------------------------------ *)
(* ptk-scale: generate -> decompose -> DL -> SSSP -> store, n swept *)

type ptk_out = {
  p_report : Build.report;
  p_labels : Labeling.t array;
  p_sssp : Sssp.result;
  p_store : Store.t;
  p_metrics : Metrics.t;
}

let ptk_scale ctx =
  let ns = match ctx.scale with Full -> [| 128; 256; 512; 1024 |] | Smoke -> [| 32; 64; 128 |] in
  let graphs = Span.with_ s_generate (fun () -> Array.map (fun n -> weighted_ptk ~structure:(structure n) ~seed:(derive ctx n) n) ns) in
  let path = Filename.concat ctx.scratch "ptk-scale.store" in
  let outs = Array.make (Array.length ns) None in
  let first = Array.make (Array.length ns) None in
  let pairs = Array.mapi (fun i n -> sample_pairs (rng ctx i) n 64) ns in
  let request i =
    let g = graphs.(i) in
    let m = Metrics.create () in
    let report = Span.with_ s_decompose (fun () -> Build.decompose ~seed:program_seed g ~metrics:m) in
    let labels = Span.with_ s_dl (fun () -> Dl.build g report.Build.decomposition ~metrics:m) in
    let sssp = Span.with_ s_sssp (fun () -> Sssp.run g labels ~source:0 ~metrics:m) in
    Span.with_ s_save (fun () -> Store.save path labels);
    let st = Span.with_ s_open (fun () -> Store.open_ path) in
    outs.(i) <- Some { p_report = report; p_labels = labels; p_sssp = sssp; p_store = st; p_metrics = m }
  in
  let dij = Array.map (fun g -> memo (Shortest_path.dijkstra g)) graphs in
  let to0 = memo (fun i -> Shortest_path.dijkstra_to graphs.(i) 0) in
  let verify () =
    let t = tally () in
    Array.iteri
      (fun i o ->
        let o = get o in
        let src = Query.of_store o.p_store in
        check t
          (Printf.sprintf "ptk-scale n=%d" ns.(i))
          (Decomposition.validate o.p_report.Build.decomposition = Ok ()
          && o.p_sssp.Sssp.dist_from_source = dij.(i) 0
          && o.p_sssp.Sssp.dist_to_source = to0 i
          && labels_exact dij.(i) o.p_labels pairs.(i)
          && Array.for_all
               (fun (u, v) -> Query.answer src (Query.Dist { u; v }) = Labeling.decode o.p_labels.(u) o.p_labels.(v))
               pairs.(i)
          && repeats first i o.p_metrics))
      outs;
    (t.attempted, t.failed)
  in
  {
    requests = Array.length ns;
    queries = 0;
    request;
    label = (fun i -> Printf.sprintf "n=%d" ns.(i));
    size = (fun i -> ns.(i));
    verify;
    sim = (fun () -> merged (Array.map (Option.map (fun o -> o.p_metrics)) outs));
    counts =
      (fun () ->
        treedec_counts (Array.map (Option.map (fun o -> o.p_report)) outs)
        @ [
            ("core.dl.label_words_max", fl (max_over (fun o -> Dl.max_label_words o.p_labels) outs));
            ("serve.store_bytes", fl (Array.fold_left (fun acc o -> acc + Store.byte_size (get o).p_store) 0 outs));
          ]);
  }

(* ------------------------------------------------------------------ *)
(* apps-mix: the stateful-walk applications of core *)

let cdl_specs = [| ("parity", Stateful.parity); ("count:2", Stateful.count ~limit:2); ("colored:3", Stateful.colored ~colors:3) |]

type app_job = Decompose | Cdl_job of int | Girth_job | Matching_job

let app_jobs = [| Decompose; Cdl_job 0; Cdl_job 1; Cdl_job 2; Girth_job; Matching_job |]

let app_name = function
  | Decompose -> "decompose"
  | Cdl_job c -> "cdl " ^ fst cdl_specs.(c)
  | Girth_job -> "girth"
  | Matching_job -> "matching"

let apps_mix ctx =
  let n, half = match ctx.scale with Full -> (384, 96) | Smoke -> (48, 12) in
  let s = derive ctx 0 in
  (* labelled weighted directed ptk (3 edge colours), undirected weighted
     ptk, and a subdivided 2-tree (bipartite) *)
  let lg, ug, bg =
    Span.with_ s_generate (fun () ->
        ( colour ~seed:s ~colours:3 (weighted_ptk ~structure:(structure 0) ~seed:s n),
          Generators.random_weights ~seed:s ~max_weight:9 (ptk ~structure:(structure 10) n),
          Generators.subdivide (Generators.k_tree ~seed:(structure 20) half 2) ))
  in
  let jobs = Array.length app_jobs in
  let metrics = Array.make jobs None in
  let dec = ref None and girth_dec = ref None and girth = ref None and matching = ref None in
  let cdls = Array.make (Array.length cdl_specs) None in
  let r = rng ctx 0 in
  let triples =
    Array.map
      (fun (_, spec) -> Array.init 64 (fun _ -> (Random.State.int r n, Random.State.int r n, Random.State.int r spec.Stateful.q_size)))
      cdl_specs
  in
  let request i =
    let m = Metrics.create () in
    (match app_jobs.(i) with
    | Decompose -> dec := Some (Span.with_ s_decompose (fun () -> Build.decompose ~seed:program_seed lg ~metrics:m))
    | Cdl_job c ->
        let dec = (get !dec).Build.decomposition in
        cdls.(c) <- Some (Span.with_ s_cdl (fun () -> Cdl.build ~dec ~seed:program_seed lg (snd cdl_specs.(c)) ~metrics:m))
    | Girth_job ->
        let report = Span.with_ s_decompose (fun () -> Build.decompose ~seed:program_seed ug ~metrics:m) in
        girth_dec := Some report;
        girth :=
          Some
            (Span.with_ s_girth (fun () ->
                 Girth.undirected ~mode:`Charged ~dec:report.Build.decomposition ~seed:program_seed ug ~metrics:m))
    | Matching_job -> matching := Some (Span.with_ s_matching (fun () -> Matching.run ~seed:program_seed bg ~metrics:m)));
    metrics.(i) <- Some m
  in
  let products = memo (fun c -> Product.build lg (snd cdl_specs.(c))) in
  let girth_ref = lazy (Girth_ref.girth ug) in
  let matching_ref = lazy (Matching_ref.size (Matching_ref.hopcroft_karp bg)) in
  let first = Array.make jobs None in
  let verify () =
    let t = tally () in
    Array.iteri
      (fun i job ->
        let valid r = Decomposition.validate (get r).Build.decomposition = Ok () in
        let ok =
          match job with
          | Decompose -> valid !dec
          | Cdl_job c ->
              let cdl = get cdls.(c) and p = products c in
              Array.for_all
                (fun (u, v, q) -> Cdl.sdec cdl ~q ~src:u ~dst:v = Product.constrained_distance p ~q ~src:u ~dst:v)
                triples.(c)
          | Girth_job -> valid !girth_dec && (get !girth).Girth.girth = Lazy.force girth_ref
          | Matching_job ->
              let r = get !matching in
              r.Matching.size = Lazy.force matching_ref && Matching_ref.is_matching bg r.Matching.mate
        in
        check t ("apps-mix " ^ app_name job) (repeats first i (get metrics.(i)) && ok))
      app_jobs;
    (t.attempted, t.failed)
  in
  {
    requests = jobs;
    queries = 0;
    request;
    label = (fun i -> app_name app_jobs.(i));
    size = (fun _ -> n);
    verify;
    sim = (fun () -> merged metrics);
    counts = (fun () -> treedec_counts [| !dec; !girth_dec |]);
  }

(* ------------------------------------------------------------------ *)
(* chaos-engine: one engine driven four ways *)

type scenario = Sync | Reliable | Recover | Async

let scenarios = [| Sync; Reliable; Recover; Async |]
let scenario_name = function Sync -> "sync" | Reliable -> "reliable" | Recover -> "recovery" | Async -> "async"

type chaos_out = {
  c_sssp : Sssp.result option;
  c_bf : int array option;
  c_bfs : Bfs_tree.tree option;
  c_metrics : Metrics.t;
}

let chaos_engine ctx =
  let n = match ctx.scale with Full -> 512 | Smoke -> 96 in
  let g = Span.with_ s_generate (fun () -> weighted_ptk ~structure:(structure 0) ~seed:(derive ctx 0) n) in
  let sk = Digraph.skeleton g in
  let m0 = Metrics.create () in
  let report = Span.with_ s_decompose (fun () -> Build.decompose ~seed:program_seed g ~metrics:m0) in
  let labels = Span.with_ s_dl (fun () -> Dl.build g report.Build.decomposition ~metrics:m0) in
  let sources = [| 0; n / 4; n / 2; 3 * n / 4 |] in
  let r = rng ctx 1 in
  (* two crash-amnesia victims per source, never the source itself *)
  let victims =
    Array.map
      (fun s ->
        let rec pick avoid = let v = Random.State.int r n in if List.mem v avoid then pick avoid else v in
        let a = pick [ s ] in
        (a, pick [ s; a ]))
      sources
  in
  let per = Array.length scenarios in
  let jobs = Array.length sources * per in
  let outs = Array.make jobs None in
  let request i =
    let j = i / per and sc = scenarios.(i mod per) in
    let source = sources.(j) in
    let m = Metrics.create () in
    let fault_seed = structure (100 + i) in
    let sssp ?faults ?reliable () = Span.with_ s_sssp (fun () -> Sssp.run ?faults ?reliable g labels ~source ~metrics:m) in
    let out =
      match sc with
      | Sync ->
          Span.with_ s_sync (fun () ->
              let s = sssp () in
              { c_sssp = Some s; c_bf = Some (Bellman_ford.run g ~source ~metrics:m); c_bfs = None; c_metrics = m })
      | Reliable ->
          Span.with_ s_reliable (fun () ->
              let faults = Fault.create ~seed:fault_seed (Fault.profile ~drop:0.1 ()) in
              { c_sssp = Some (sssp ~faults ~reliable:true ()); c_bf = None; c_bfs = None; c_metrics = m })
      | Recover ->
          Span.with_ s_recovery (fun () ->
              let a, b = victims.(j) in
              let crashes =
                [ Fault.crash a ~from:3 ~until:15 ~mode:Fault.Amnesia; Fault.crash b ~from:8 ~until:20 ~mode:Fault.Amnesia ]
              in
              let faults () = Fault.create ~seed:fault_seed (Fault.profile ~crashes ()) in
              let recovery = { Recovery.checkpoint_every = 4 } in
              let bf = Bellman_ford.run ~faults:(faults ()) ~recovery g ~source ~metrics:m in
              let bfs = Bfs_tree.build ~faults:(faults ()) ~recovery sk ~root:source ~metrics:m in
              { c_sssp = None; c_bf = Some bf; c_bfs = Some bfs; c_metrics = m })
      | Async ->
          Span.with_ s_async (fun () ->
              let stragglers =
                [ Fault.straggle 5 ~from:2 ~until:10 ~factor:8; Fault.straggle 11 ~from:4 ~until:12 ~factor:16 ]
              in
              let faults = Fault.create ~seed:fault_seed (Fault.profile ~stragglers ~link_latency:2 ~skew:3 ()) in
              let saved = !Async_engine.forced in
              Async_engine.forced := true;
              Fun.protect ~finally:(fun () -> Async_engine.forced := saved) @@ fun () ->
              { c_sssp = Some (sssp ~faults ()); c_bf = None; c_bfs = None; c_metrics = m })
    in
    outs.(i) <- Some out
  in
  let from_s = memo (Shortest_path.dijkstra g) in
  let to_s = memo (Shortest_path.dijkstra_to g) in
  let hops = memo (Traversal.bfs_undirected g) in
  let pairs = sample_pairs (rng ctx 2) n 64 in
  let first = Array.make jobs None in
  let verify () =
    let t = tally () in
    check t "chaos-engine labels" (labels_exact from_s labels pairs);
    Array.iteri
      (fun i o ->
        let o = get o in
        let s = sources.(i / per) in
        let opt f = function None -> true | Some x -> f x in
        check t
          (Printf.sprintf "chaos-engine source %d %s" s (scenario_name scenarios.(i mod per)))
          (repeats first i o.c_metrics
          && opt (fun r -> r.Sssp.dist_from_source = from_s s && r.Sssp.dist_to_source = to_s s) o.c_sssp
          && opt (fun d -> d = from_s s) o.c_bf
          && opt (fun t -> t.Bfs_tree.dist = hops s) o.c_bfs))
      outs;
    (t.attempted, t.failed)
  in
  {
    requests = jobs;
    queries = 0;
    request;
    label = (fun i -> Printf.sprintf "src=%d %s" sources.(i / per) (scenario_name scenarios.(i mod per)));
    size = (fun _ -> n);
    verify;
    sim = (fun () -> merged (Array.map (Option.map (fun o -> o.c_metrics)) outs));
    counts =
      (fun () ->
        treedec_counts [| Some report |] @ [ ("core.dl.label_words_max", fl (Dl.max_label_words labels)) ]);
  }

(* ------------------------------------------------------------------ *)
(* serve-hot / serve-cold: DIST/CDL queries against the label store *)

let batch = 64

(* the CLI's default hot-pair cache size *)
let cache_size = 1024

let serve ~hot ctx =
  let n, base, warmup, republish =
    match (ctx.scale, hot) with
    | Full, true -> (512, 1_000_000, 100_000, false)
    | Full, false -> (512, 262_144, 0, true)
    | Smoke, true -> (96, 10_048, 1_024, false)
    | Smoke, false -> (96, 10_048, 0, true)
  in
  let spec = Stateful.count ~limit:1 in
  let q_size = spec.Stateful.q_size in
  let g = Span.with_ s_generate (fun () -> colour ~seed:(derive ctx 0) ~colours:2 (weighted_ptk ~structure:(structure 0) ~seed:(derive ctx 0) n)) in
  let m0 = Metrics.create () in
  let report = Span.with_ s_decompose (fun () -> Build.decompose ~seed:program_seed g ~metrics:m0) in
  let dec = report.Build.decomposition in
  let labels = Span.with_ s_dl (fun () -> Dl.build g dec ~metrics:m0) in
  let cdl = Span.with_ s_cdl (fun () -> Cdl.build ~dec ~seed:program_seed g spec ~metrics:m0) in
  let cdl_labels = Cdl.labels cdl in
  let path = Filename.concat ctx.scratch (if hot then "serve-hot.store" else "serve-cold.store") in
  let publish () =
    Span.with_ s_save (fun () -> Store.save path labels ~cdl:(q_size, spec.Stateful.start, cdl_labels));
    Span.with_ s_open (fun () -> Store.open_ path)
  in
  let store = ref (publish ()) in
  let src = ref (Query.of_store !store) in
  let cache = ref (Cache.create cache_size) in
  let r = rng ctx 3 in
  let uniform () =
    let u = Random.State.int r n and v = Random.State.int r n in
    if Random.State.bool r then Query.Dist { u; v } else Query.Cdl { u; v; q = Random.State.int r q_size }
  in
  let queries =
    if hot then
      let hot_set = Array.init 256 (fun _ -> uniform ()) in
      Array.init base (fun _ -> if Random.State.int r 10 < 9 then hot_set.(Random.State.int r 256) else uniform ())
    else Array.init base (fun _ -> uniform ())
  in
  for i = 0 to warmup - 1 do
    ignore (Query.answer ~cache:!cache !src queries.(i mod base))
  done;
  Cache.flush !cache (Metrics.create ());
  let answers = Array.make base 0 in
  let requests = (base + batch - 1) / batch in
  let request i =
    if republish && i = 0 then begin
      store := publish ();
      src := Query.of_store !store;
      cache := Cache.create cache_size
    end;
    let src = !src and cache = !cache in
    Span.with_ s_answer (fun () ->
        for j = i * batch to min base ((i + 1) * batch) - 1 do
          answers.(j) <- Query.answer ~cache src queries.(j)
        done)
  in
  (* the oracle side: the in-memory labels the store was written from *)
  let mem =
    {
      Query.n;
      dist = Array.get labels;
      cdl = Some { Query.q_size; start = spec.Stateful.start; label = Array.get cdl_labels };
    }
  in
  let expected =
    lazy
      (let by_key = memo (fun q -> Query.answer mem q) in
       Array.map by_key queries)
  in
  let checked_labels =
    lazy
      (let p = Product.build g spec in
       let r = rng ctx 4 in
       labels_exact (memo (Shortest_path.dijkstra g)) labels (sample_pairs r n 64)
       && List.for_all
            (fun _ ->
              let u = Random.State.int r n and v = Random.State.int r n and q = Random.State.int r q_size in
              Cdl.sdec cdl ~q ~src:u ~dst:v = Product.constrained_distance p ~q ~src:u ~dst:v)
            (List.init 64 Fun.id))
  in
  (* the cache counters of the latest pass *)
  let pass_counters = ref (Metrics.create ()) in
  let verify () =
    let m = Metrics.create () in
    Cache.flush !cache m;
    pass_counters := m;
    let expected = Lazy.force expected in
    let labels_ok = Lazy.force checked_labels in
    if not labels_ok then Printf.eprintf "oracle mismatch: %s labels\n%!" (if hot then "serve-hot" else "serve-cold");
    let failed = ref 0 in
    Array.iteri (fun j a -> if (not labels_ok) || a <> expected.(j) then incr failed) answers;
    if !failed > 0 then Printf.eprintf "oracle mismatch: %d of %d answers\n%!" !failed base;
    (base, !failed)
  in
  {
    requests;
    queries = base;
    request;
    label = (fun _ -> "");
    size = (fun _ -> n);
    verify;
    sim = (fun () -> !pass_counters);
    counts =
      (fun () ->
        treedec_counts [| Some report |]
        @ [
            ("core.dl.label_words_max", fl (Dl.max_label_words labels));
            ("serve.store_bytes", fl (Store.byte_size !store));
          ]);
  }

let all =
  [
    { name = "ptk-scale"; setup = ptk_scale };
    { name = "apps-mix"; setup = apps_mix };
    { name = "chaos-engine"; setup = chaos_engine };
    { name = "serve-hot"; setup = serve ~hot:true };
    { name = "serve-cold"; setup = serve ~hot:false };
  ]
