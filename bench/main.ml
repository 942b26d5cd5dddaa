(* Experiment harness: regenerates every "table/figure" of the experiment
   index in DESIGN.md (E1a-E6c). The paper itself is a theory paper with
   no measured tables; each experiment here validates one theorem's claim
   (see EXPERIMENTS.md for claim-vs-measured).

   Usage:
     dune exec bench/main.exe             -- run every experiment
     dune exec bench/main.exe -- E2b E5b  -- run selected experiments *)

module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref
module Metrics = Repro_congest.Metrics
module Bellman_ford = Repro_congest.Bellman_ford
module Bfs_tree = Repro_congest.Bfs_tree
module Fault = Repro_congest.Fault
module Recovery = Repro_congest.Recovery
module Apsp = Repro_congest.Apsp
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives
module Decomposition = Repro_treedec.Decomposition
module Heuristic = Repro_treedec.Heuristic
module Separator = Repro_treedec.Separator
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp
module Stateful = Repro_core.Stateful
module Cdl = Repro_core.Cdl
module Matching = Repro_core.Matching
module Girth = Repro_core.Girth
module Engine = Repro_congest.Engine
module Detector = Repro_congest.Detector
module Async_engine = Repro_congest.Async_engine
module Store = Repro_serve.Store

let log2f x = log (float_of_int (max 2 x)) /. log 2.0

let header title claim =
  Printf.printf "\n== %s ==\n   claim: %s\n" title claim

let table_header cols =
  let line = String.concat " | " cols in
  Printf.printf "   %s\n   %s\n" line (String.make (String.length line) '-')

let cell w s =
  let pad = max 0 (w - String.length s) in
  String.make pad ' ' ^ s

(* ------------------------------------------------------------------ *)
(* Shared instance builders *)

let ptk ~seed n k = Generators.partial_k_tree ~seed n k ~keep:0.6

let decompose_measured ?(seed = 1) g =
  let m = Metrics.create () in
  let report = Build.decompose ~seed g ~metrics:m in
  (report, Metrics.rounds m)

(* ------------------------------------------------------------------ *)
(* E1a / E1b: tree decomposition width and rounds (Theorem 1) *)

let e1 () =
  header "E1a/E1b: distributed tree decomposition (Theorem 1)"
    "width O(tau^2 log n); rounds ~ tau^2 D + tau^3 (up to polylog)";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 4 "tau"; cell 4 "D"; cell 6 "width";
      cell 12 "w/(t^2 lg n)"; cell 8 "rounds"; cell 10 "t^2D+t^3"; cell 7 "ratio";
    ];
  let families =
    List.concat_map
      (fun k ->
        List.map
          (fun n -> (Printf.sprintf "partial %d-tree" k, ptk ~seed:(k + n) n k))
          [ 64; 128; 256 ])
      [ 2; 3; 4 ]
    @ [ ("cycle", Generators.cycle 128); ("grid 8x8", Generators.grid 8 8) ]
  in
  List.iter
    (fun (name, g) ->
      let tau = Heuristic.degeneracy g in
      let d = Traversal.diameter g in
      let report, rounds = decompose_measured g in
      let width = Decomposition.width report.Build.decomposition in
      let bound = float_of_int (tau * tau) *. log2f (Digraph.n g) in
      let reference = (tau * tau * d) + (tau * tau * tau) in
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
        (cell 5 (string_of_int (Digraph.n g)))
        (cell 4 (string_of_int tau))
        (cell 4 (string_of_int d))
        (cell 6 (string_of_int width))
        (cell 12 (Printf.sprintf "%.2f" (float_of_int width /. bound)))
        (cell 8 (string_of_int rounds))
        (cell 10 (string_of_int reference))
        (cell 7
           (Printf.sprintf "%.1f" (float_of_int rounds /. float_of_int (max 1 reference)))))
    families

(* ------------------------------------------------------------------ *)
(* E2a: DL label size and exactness (Theorem 2) *)

let e2a () =
  header "E2a: distance labeling exactness and label size (Theorem 2)"
    "labels exact; size O(tau^2 log^2 n) words";
  table_header
    [
      cell 5 "n"; cell 4 "k"; cell 6 "width"; cell 10 "max words";
      cell 14 "t^2 lg^2 n ref"; cell 6 "exact";
    ];
  List.iter
    (fun (n, k) ->
      let g = Generators.bidirect ~seed:(n + k) ~max_weight:16 (ptk ~seed:(n * k) n k) in
      let report, _ = decompose_measured g in
      let m = Metrics.create () in
      let labels = Dl.build g report.Build.decomposition ~metrics:m in
      let words = Dl.max_label_words labels in
      let tau = Heuristic.degeneracy g in
      let reference = float_of_int (tau * tau) *. log2f n *. log2f n in
      (* exactness on a sample of pairs *)
      let rng = Random.State.make [| n; k |] in
      let exact = ref true in
      for _ = 1 to 100 do
        let u = Random.State.int rng n in
        let d = Shortest_path.dijkstra g u in
        let v = Random.State.int rng n in
        if Labeling.decode labels.(u) labels.(v) <> d.(v) then exact := false
      done;
      Printf.printf "   %s | %s | %s | %s | %s | %s\n"
        (cell 5 (string_of_int n))
        (cell 4 (string_of_int k))
        (cell 6 (string_of_int (Decomposition.width report.Build.decomposition)))
        (cell 10 (string_of_int words))
        (cell 14 (Printf.sprintf "%.0f" reference))
        (cell 6 (if !exact then "yes" else "NO")))
    [ (64, 2); (128, 2); (128, 3); (256, 3) ]

(* ------------------------------------------------------------------ *)
(* E2b: SSSP rounds, ours vs Bellman-Ford baseline (Theorem 2) *)

let e2b () =
  header "E2b: SSSP rounds vs Bellman-Ford baseline"
    "ours ~ tau^2 D + tau^5 polylog (flat-ish in n); baseline Theta(n)";
  table_header
    [
      cell 14 "family"; cell 5 "n"; cell 4 "D"; cell 12 "ours(total)";
      cell 12 "ours(query)"; cell 10 "baseline"; cell 9 "exact";
    ];
  List.iter
    (fun (family, n) ->
      let g =
        match family with
        | `Ptk -> Generators.bidirect ~seed:n ~max_weight:9 (ptk ~seed:n n 3)
        | `Wheel -> Generators.wheel n
      in
      let m = Metrics.create () in
      let report = Build.decompose ~seed:2 g ~metrics:m in
      let labels = Dl.build g report.Build.decomposition ~metrics:m in
      let before = Metrics.rounds m in
      let r = Sssp.run g labels ~source:0 ~metrics:m in
      let query = Metrics.rounds m - before in
      let mb = Metrics.create () in
      let bf = Bellman_ford.run g ~source:0 ~metrics:mb in
      let exact =
        r.Sssp.dist_from_source = Shortest_path.dijkstra g 0
        && bf = Shortest_path.dijkstra g 0
      in
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s\n"
        (cell 14 (match family with `Ptk -> "partial 3-tree" | `Wheel -> "heavy wheel"))
        (cell 5 (string_of_int n))
        (cell 4 (string_of_int (Traversal.diameter g)))
        (cell 12 (string_of_int (Metrics.rounds m)))
        (cell 12 (string_of_int query))
        (cell 10 (string_of_int (Metrics.rounds mb)))
        (cell 9 (if exact then "both" else "NO")))
    [ (`Ptk, 64); (`Ptk, 128); (`Ptk, 256); (`Ptk, 512); (`Ptk, 1024);
      (`Wheel, 64); (`Wheel, 128); (`Wheel, 256); (`Wheel, 512); (`Wheel, 1024) ]

(* ------------------------------------------------------------------ *)
(* E3: CDL overhead scaling in |Q| (Theorem 3) *)

let e3 () =
  header "E3: constrained distance labeling overhead (Theorem 3)"
    "CDL rounds scale polynomially with the state-space size |Q|";
  let g0 = ptk ~seed:7 64 2 in
  let rng = Random.State.make [| 7 |] in
  let with_labels colors = Digraph.with_labels g0 (fun _ -> Random.State.int rng colors) in
  let m0 = Metrics.create () in
  let dec = (Build.decompose ~seed:3 g0 ~metrics:m0).Build.decomposition in
  let base =
    let m = Metrics.create () in
    ignore (Dl.build g0 dec ~metrics:m);
    Metrics.rounds m
  in
  table_header
    [ cell 14 "constraint"; cell 4 "|Q|"; cell 10 "rounds"; cell 12 "vs plain DL" ];
  Printf.printf "   %s | %s | %s | %s\n" (cell 14 "plain DL") (cell 4 "-")
    (cell 10 (string_of_int base))
    (cell 12 "1.0");
  List.iter
    (fun (name, spec, labeled) ->
      let m = Metrics.create () in
      ignore (Cdl.build ~dec ~seed:1 labeled spec ~metrics:m);
      Printf.printf "   %s | %s | %s | %s\n" (cell 14 name)
        (cell 4 (string_of_int spec.Stateful.q_size))
        (cell 10 (string_of_int (Metrics.rounds m)))
        (cell 12
           (Printf.sprintf "%.1f"
              (float_of_int (Metrics.rounds m) /. float_of_int (max 1 base)))))
    [
      ("forbidden", Stateful.forbidden, with_labels 2);
      ("parity", Stateful.parity, with_labels 2);
      ("colored-2", Stateful.colored ~colors:2, with_labels 2);
      ("colored-3", Stateful.colored ~colors:3, with_labels 3);
      ("count-1", Stateful.count ~limit:1, with_labels 2);
      ("count-2", Stateful.count ~limit:2, with_labels 2);
      ("count-3", Stateful.count ~limit:3, with_labels 2);
    ]

(* ------------------------------------------------------------------ *)
(* E4a / E4b: exact bipartite matching (Theorem 4) *)

let e4 () =
  header "E4a: exact bipartite maximum matching (Theorem 4)"
    "exact matching; rounds ~ tau^4 D + tau^7 polylog";
  table_header
    [
      cell 18 "family"; cell 5 "n"; cell 6 "match"; cell 5 "aug";
      cell 8 "rounds"; cell 6 "exact";
    ];
  let run_one name g =
    let m = Metrics.create () in
    let r = Matching.run ~seed:1 g ~metrics:m in
    let hk = Matching_ref.size (Matching_ref.hopcroft_karp (Digraph.skeleton g)) in
    Printf.printf "   %s | %s | %s | %s | %s | %s\n" (cell 18 name)
      (cell 5 (string_of_int (Digraph.n g)))
      (cell 6 (string_of_int r.Matching.size))
      (cell 5 (string_of_int r.Matching.augmentations))
      (cell 8 (string_of_int (Metrics.rounds m)))
      (cell 6 (if r.Matching.size = hk then "yes" else "NO"))
  in
  run_one "grid 6x6" (Generators.grid 6 6);
  run_one "grid 8x8" (Generators.grid 8 8);
  run_one "subdiv 2-tree 40" (Generators.subdivide (Generators.k_tree ~seed:4 40 2));
  run_one "subdiv 3-tree 40" (Generators.subdivide (Generators.k_tree ~seed:4 40 3));
  header "E4b: matching rounds vs sequential Õ(s_max) baseline"
    "ours sublinear in n at fixed tau; baseline grows with matching size";
  table_header [ cell 5 "n"; cell 6 "s_max"; cell 10 "ours"; cell 10 "baseline" ];
  List.iter
    (fun half ->
      let g = Generators.subdivide (Generators.k_tree ~seed:5 half 2) in
      let m = Metrics.create () and mb = Metrics.create () in
      let r = Matching.run ~seed:1 g ~metrics:m in
      let rb = Matching.sequential_baseline g ~metrics:mb in
      assert (r.Matching.size = rb.Matching.size);
      Printf.printf "   %s | %s | %s | %s\n"
        (cell 5 (string_of_int (Digraph.n g)))
        (cell 6 (string_of_int r.Matching.size))
        (cell 10 (string_of_int (Metrics.rounds m)))
        (cell 10 (string_of_int (Metrics.rounds mb))))
    [ 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* E5a: weighted girth, directed and undirected (Theorem 5) *)

let e5a () =
  header "E5a: weighted girth (Theorem 5)"
    "exact girth; rounds ~ tau^2 D + tau^5 polylog";
  table_header
    [
      cell 20 "family"; cell 5 "n"; cell 9 "dir"; cell 7 "girth";
      cell 7 "ref"; cell 8 "rounds"; cell 7 "trials";
    ];
  let run_one name g =
    let m = Metrics.create () in
    let r =
      if Digraph.directed g then Girth.directed ~seed:1 g ~metrics:m
      else Girth.undirected ~mode:`Charged ~seed:1 g ~metrics:m
    in
    Printf.printf "   %s | %s | %s | %s | %s | %s | %s\n" (cell 20 name)
      (cell 5 (string_of_int (Digraph.n g)))
      (cell 9 (if Digraph.directed g then "directed" else "undir"))
      (cell 7 (if r.Girth.girth >= Digraph.inf then "inf" else string_of_int r.Girth.girth))
      (cell 7
         (let gr = Girth_ref.girth g in
          if gr >= Digraph.inf then "inf" else string_of_int gr))
      (cell 8 (string_of_int (Metrics.rounds m)))
      (cell 7 (string_of_int r.Girth.trials))
  in
  run_one "weighted ring 32"
    (Generators.random_weights ~seed:2 ~max_weight:6 (Generators.cycle 32));
  run_one "ring of rings" (Generators.ring_of_rings ~rings:6 ~ring_size:5);
  run_one "weighted grid 6x6"
    (Generators.random_weights ~seed:3 ~max_weight:4 (Generators.grid 6 6));
  run_one "2-tree 64 (undir)"
    (Generators.random_weights ~seed:4 ~max_weight:5 (Generators.k_tree ~seed:4 64 2));
  run_one "2-tree 64 (dir)"
    (Generators.bidirect ~seed:5 ~max_weight:5 (Generators.k_tree ~seed:4 64 2));
  run_one "directed 3-tree 96"
    (Generators.bidirect ~seed:6 ~max_weight:7 (Generators.k_tree ~seed:6 96 3));
  run_one "directed 3-tree 256"
    (Generators.bidirect ~seed:7 ~max_weight:7 (Generators.k_tree ~seed:7 256 3));
  run_one "directed 3-tree 512"
    (Generators.bidirect ~seed:8 ~max_weight:7 (Generators.k_tree ~seed:8 512 3))

(* ------------------------------------------------------------------ *)
(* E5b: exponential girth/diameter separation (Section 1.2). The
   pipelined-APSP diameter costs exactly n + 9 rounds on apex cliques;
   it is simulated up to n = 1025 (checked against that law) and beyond
   that printed from the law, marked "(law)": simulating n = 4097 would
   deliver 84 M messages. *)

let e5b () =
  header "E5b: girth vs diameter separation on constant-D graphs"
    "girth rounds ~flat in n; diameter baseline Omega(n) (exponential gap)";
  table_header
    [
      cell 5 "n"; cell 4 "D"; cell 5 "tau"; cell 13 "girth rounds";
      cell 15 "diameter rounds"; cell 7 "ratio";
    ];
  List.iter
    (fun cliques ->
      let g = Generators.apex_cliques ~cliques ~size:4 in
      let n = Digraph.n g in
      let mg = Metrics.create () in
      let r = Girth.undirected ~mode:`Charged ~repeats:3 ~seed:1 g ~metrics:mg in
      assert (r.Girth.girth >= 3);
      let diameter, how =
        if n > 1025 then (n + 9, " (law)")
        else begin
          let md = Metrics.create () in
          ignore (Apsp.diameter g ~metrics:md);
          assert (Metrics.rounds md = n + 9);
          (Metrics.rounds md, "")
        end
      in
      Printf.printf "   %s | %s | %s | %s | %s | %s\n"
        (cell 5 (string_of_int n))
        (cell 4 (string_of_int (Traversal.diameter g)))
        (cell 5 (string_of_int (Heuristic.degeneracy g)))
        (cell 13 (string_of_int (Metrics.rounds mg)))
        (cell 15 (string_of_int diameter ^ how))
        (cell 7
           (Printf.sprintf "%.2f"
              (float_of_int diameter /. float_of_int (max 1 (Metrics.rounds mg))))))
    [ 8; 16; 32; 64; 256; 1024 ]

(* ------------------------------------------------------------------ *)
(* E6a: SEP sampling ablation (Section 3.3, first idea) *)

let e6a () =
  header "E6a: SEP constant profiles — paper vs practical (ablation)"
    "paper constants are asymptotic (step-1 threshold 200t^2 swallows small graphs); the practical profile keeps SEP's machinery engaged at laptop sizes";
  table_header
    [
      cell 10 "profile"; cell 5 "n"; cell 10 "sep size"; cell 9 "balanced";
      cell 7 "width"; cell 12 "cost rounds";
    ];
  List.iter
    (fun n ->
      let g = ptk ~seed:11 n 3 in
      let mask = Array.make (Digraph.n g) true in
      List.iter
        (fun profile ->
          let cost = Primitives.cost_zero () in
          let sep, _ = Separator.find_separator ~profile ~seed:3 g ~mask ~x_mask:mask ~cost in
          let m = Metrics.create () in
          let width =
            Decomposition.width (Build.decompose ~profile ~seed:3 g ~metrics:m).Build.decomposition
          in
          Printf.printf "   %s | %s | %s | %s | %s | %s\n"
            (cell 10 profile.Separator.name)
            (cell 5 (string_of_int n))
            (cell 10 (string_of_int (List.length sep)))
            (cell 9
               (if Separator.is_balanced g ~mask ~x_mask:mask ~profile sep then "yes"
                else "NO"))
            (cell 7 (string_of_int width))
            (cell 12 (string_of_int (Primitives.cost_rounds cost))))
        [ Separator.paper_profile; Separator.practical_profile ])
    [ 96; 192; 384 ]

(* ------------------------------------------------------------------ *)
(* E6b: parallel vs sequential MVC scheduling (Section 3.3, third idea) *)

let e6b () =
  header "E6b: MVC scheduling — parallel (Cor. 2) vs sequential charges"
    "parallel: t(2depth) + h t load; sequential: h * t * (2depth + load)";
  table_header
    [
      cell 5 "n"; cell 6 "depth"; cell 5 "load"; cell 4 "h"; cell 4 "t";
      cell 10 "parallel"; cell 12 "sequential"; cell 8 "speedup";
    ];
  List.iter
    (fun n ->
      let g = ptk ~seed:13 n 3 in
      let m = Metrics.create () in
      (* basis measured over the SPLIT pieces of a spanning tree, the
         collection SEP actually runs MVC over *)
      let mask = Array.make (Digraph.n g) true in
      let cost = Primitives.cost_zero () in
      let sep, _ = Separator.find_separator ~seed:13 g ~mask ~x_mask:mask ~cost in
      ignore sep;
      let parts = Part.make g [| Array.init (Digraph.n g) Fun.id |] in
      let b = Primitives.basis parts ~metrics:m in
      let h = 24 and t = 4 in
      let parallel = Primitives.mvc_rounds b ~h ~t in
      let sequential = h * t * ((2 * b.Primitives.depth) + b.Primitives.max_load) in
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s\n"
        (cell 5 (string_of_int n))
        (cell 6 (string_of_int b.Primitives.depth))
        (cell 5 (string_of_int b.Primitives.max_load))
        (cell 4 (string_of_int h))
        (cell 4 (string_of_int t))
        (cell 10 (string_of_int parallel))
        (cell 12 (string_of_int sequential))
        (cell 8
           (Printf.sprintf "%.1fx"
              (float_of_int sequential /. float_of_int (max 1 parallel)))))
    [ 64; 128; 256 ];
  Printf.printf "   Theorem 6 at message level: k concurrent BFS floods (grid 8x8, D=14):\n";
  table_header [ cell 4 "k"; cell 10 "measured"; cell 8 "D + k"; cell 12 "sequential" ];
  List.iter
    (fun k ->
      let g = Generators.grid 8 8 in
      let d = Traversal.diameter g in
      let roots = List.init k (fun i -> (i * 7) mod 64) in
      let m = Metrics.create () in
      let r = Repro_congest.Multi_bfs.run g ~roots ~seed:1 ~metrics:m () in
      Printf.printf "   %s | %s | %s | %s\n"
        (cell 4 (string_of_int k))
        (cell 10 (string_of_int r.Repro_congest.Multi_bfs.rounds))
        (cell 8 (string_of_int (d + k)))
        (cell 12 (string_of_int (k * d))))
    [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* E6c: separator quality across families (Lemma 1 sanity) *)

let e6c () =
  header "E6c: separator balance and size across families (Lemma 1)"
    "balanced w.r.t. profile alpha; size <= O(t^2)";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 4 "t"; cell 9 "sep size";
      cell 7 "t^2 cap"; cell 9 "balanced";
    ];
  let check name g =
    let mask = Array.make (Digraph.n g) true in
    let cost = Primitives.cost_zero () in
    let sep, t = Separator.find_separator ~seed:7 g ~mask ~x_mask:mask ~cost in
    Printf.printf "   %s | %s | %s | %s | %s | %s\n" (cell 16 name)
      (cell 5 (string_of_int (Digraph.n g)))
      (cell 4 (string_of_int t))
      (cell 9 (string_of_int (List.length sep)))
      (cell 7 (string_of_int (8 * t * t)))
      (cell 9
         (if
            Separator.is_balanced g ~mask ~x_mask:mask
              ~profile:Separator.practical_profile sep
          then "yes"
          else "NO"))
  in
  check "path" (Generators.path 200);
  check "cycle" (Generators.cycle 200);
  check "grid 12x12" (Generators.grid 12 12);
  check "2-tree" (Generators.k_tree ~seed:1 200 2);
  check "4-tree" (Generators.k_tree ~seed:2 150 4);
  check "apex cliques" (Generators.apex_cliques ~cliques:24 ~size:4)

(* ------------------------------------------------------------------ *)
(* E6d: CCD — direct flooding vs shortcut-based charge (Lemma 8) *)

let e6d () =
  header "E6d: component detection — flooding vs shortcut charge (Lemma 8)"
    "flooding costs the component diameter; the shortcut reduction stays ~ tau D";
  table_header
    [
      cell 5 "n"; cell 4 "D"; cell 11 "comp diam"; cell 10 "flooding";
      cell 10 "shortcut";
    ];
  List.iter
    (fun n ->
      (* wheel with the hub masked out: D = 2 but the remaining rim
         component has diameter ~ n/2 *)
      let g = Generators.wheel n in
      let mask = Array.make n true in
      mask.(n - 1) <- false;
      let mf = Metrics.create () in
      ignore (Repro_congest.Components.flood_labels g ~mask ~metrics:mf);
      let ms = Metrics.create () in
      ignore (Primitives.components g ~mask ~metrics:ms ~label:"ccd");
      Printf.printf "   %s | %s | %s | %s | %s\n"
        (cell 5 (string_of_int n))
        (cell 4 (string_of_int (Traversal.diameter g)))
        (cell 11 (string_of_int ((n - 1) / 2)))
        (cell 10 (string_of_int (Metrics.rounds mf)))
        (cell 10 (string_of_int (Metrics.rounds ms))))
    [ 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* E7: NP-hard optimization over the decomposition (Li18 application) *)

let e7 () =
  header "E7: DP over the distributed decomposition (Li18-style application)"
    "optimal MIS / vertex cover / dominating set; rounds ~ 2^O(width) * D";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 6 "width"; cell 5 "MIS"; cell 4 "VC";
      cell 7 "DomSet"; cell 12 "table words"; cell 10 "rounds";
    ];
  List.iter
    (fun (name, g) ->
      let m = Metrics.create () in
      let report = Build.decompose ~seed:7 g ~metrics:m in
      let dec =
        if Decomposition.width report.Build.decomposition <= 9 then
          report.Build.decomposition
        else Heuristic.min_fill g
      in
      let nice = Repro_treedec.Nice.of_decomposition dec in
      let mis = Repro_core.Dp.max_weight_independent_set g nice ~metrics:m in
      let vc = Repro_core.Dp.min_vertex_cover g nice ~metrics:m in
      let ds = Repro_core.Dp.min_dominating_set g nice ~metrics:m in
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
        (cell 5 (string_of_int (Digraph.n g)))
        (cell 6 (string_of_int (Decomposition.width dec)))
        (cell 5 (string_of_int mis.Repro_core.Dp.value))
        (cell 4 (string_of_int vc.Repro_core.Dp.value))
        (cell 7 (string_of_int ds.Repro_core.Dp.value))
        (cell 12 (string_of_int ds.Repro_core.Dp.table_words))
        (cell 10 (string_of_int (Metrics.rounds m))))
    [
      ("cycle 48", Generators.cycle 48);
      ("grid 4x8", Generators.grid 4 8);
      ("partial 2-tree 48", ptk ~seed:7 48 2);
      ("partial 3-tree 48", ptk ~seed:8 48 3);
    ]
  ;
  Printf.printf "   Steiner trees (terminals = every 6th vertex):\n";
  table_header
    [ cell 16 "family"; cell 5 "n"; cell 7 "#terms"; cell 7 "weight"; cell 10 "rounds" ];
  List.iter
    (fun (name, g) ->
      let m = Metrics.create () in
      let nice = Repro_treedec.Nice.of_decomposition (Heuristic.min_fill g) in
      let terminals =
        List.filter (fun v -> v mod 6 = 0) (List.init (Digraph.n g) Fun.id)
      in
      let r = Repro_core.Dp.steiner_tree g nice ~terminals ~metrics:m in
      Printf.printf "   %s | %s | %s | %s | %s\n" (cell 16 name)
        (cell 5 (string_of_int (Digraph.n g)))
        (cell 7 (string_of_int (List.length terminals)))
        (cell 7 (string_of_int r.Repro_core.Dp.value))
        (cell 10 (string_of_int (Metrics.rounds m))))
    [
      ("cycle 36", Generators.random_weights ~seed:9 ~max_weight:9 (Generators.cycle 36));
      ("series-parallel", Generators.random_weights ~seed:10 ~max_weight:9 (Generators.series_parallel ~seed:10 36));
      ("caterpillar", Generators.caterpillar ~spine:12 ~legs:2);
    ]

(* ------------------------------------------------------------------ *)
(* E8: shortcut-based MST (the Õ(tau D) application of Section 1.1) *)

let e8 () =
  header "E8: MST via part-wise aggregation (Boruvka over shortcuts)"
    "exact MST in O(log n) PA phases; rounds ~ tau D polylog";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 4 "D"; cell 7 "phases";
      cell 8 "rounds"; cell 9 "tauD ref"; cell 6 "exact";
    ];
  List.iter
    (fun (name, g) ->
      let m = Metrics.create () in
      let r = Repro_shortcut.Mst.run g ~metrics:m in
      let k = Repro_shortcut.Mst.kruskal g in
      let tau = Heuristic.degeneracy g in
      let d = Traversal.diameter g in
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
        (cell 5 (string_of_int (Digraph.n g)))
        (cell 4 (string_of_int d))
        (cell 7 (string_of_int r.Repro_shortcut.Mst.phases))
        (cell 8 (string_of_int (Metrics.rounds m)))
        (cell 9 (string_of_int (tau * d)))
        (cell 6
           (if r.Repro_shortcut.Mst.edges = k.Repro_shortcut.Mst.edges then "yes" else "NO")))
    [
      ("partial 2-tree", Generators.random_weights ~seed:1 ~max_weight:30 (ptk ~seed:1 128 2));
      ("partial 3-tree", Generators.random_weights ~seed:2 ~max_weight:30 (ptk ~seed:2 256 3));
      ("grid 12x12", Generators.random_weights ~seed:3 ~max_weight:30 (Generators.grid 12 12));
      ("cycle 256", Generators.random_weights ~seed:4 ~max_weight:30 (Generators.cycle 256));
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable rows for the fault experiments (E-F1/E-F2/E-F3),
   flushed to BENCH_faults.json after the selected experiments ran, so
   CI can diff fault-tolerance costs without scraping the tables. *)

let fault_rows : string list ref = ref []

let fault_row ~experiment ~scenario fields =
  let all =
    ("experiment", Printf.sprintf "%S" experiment)
    :: ("scenario", Printf.sprintf "%S" scenario)
    :: fields
  in
  fault_rows :=
    Printf.sprintf "    {%s}"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) all))
    :: !fault_rows

let metric_fields m =
  ("rounds", string_of_int (Metrics.rounds m))
  :: List.map (fun c -> (Metrics.name c, string_of_int (Metrics.get m c))) Metrics.counters

let flush_fault_json () =
  if !fault_rows <> [] then begin
    let oc = open_out "BENCH_faults.json" in
    output_string oc "{\n  \"rows\": [\n";
    output_string oc (String.concat ",\n" (List.rev !fault_rows));
    output_string oc "\n  ]\n}\n";
    close_out oc;
    Printf.printf "\nwrote BENCH_faults.json (%d rows)\n" (List.length !fault_rows)
  end

(* ------------------------------------------------------------------ *)
(* E-F1: reliable transport overhead under fault injection *)

let ef1 () =
  header "E-F1: reliable-transport round overhead vs drop rate (fault injection)"
    "outputs exact for any drop < 1; ~1x overhead when fault-free, growing \
     superlinearly in p (exponential-backoff tail dominates)";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 5 "drop"; cell 9 "raw bfs"; cell 9 "reliable";
      cell 9 "overhead"; cell 8 "retrans"; cell 8 "dropped"; cell 6 "exact";
    ];
  let families =
    [
      ("partial 2-tree", ptk ~seed:66 64 2);
      ("partial 3-tree", ptk ~seed:131 128 3);
      ("cycle", Generators.cycle 128);
      ("grid 8x8", Generators.grid 8 8);
    ]
  in
  List.iter
    (fun (name, g) ->
      let expected = Traversal.bfs_undirected g 0 in
      let raw =
        let m = Metrics.create () in
        ignore (Bfs_tree.build g ~root:0 ~metrics:m);
        Metrics.rounds m
      in
      List.iter
        (fun drop ->
          let m = Metrics.create () in
          let faults = Fault.create ~seed:1 (Fault.profile ~drop ()) in
          let t = Bfs_tree.build ~faults ~reliable:true g ~root:0 ~metrics:m in
          fault_row ~experiment:"E-F1"
            ~scenario:(Printf.sprintf "%s drop=%.2f" name drop)
            (("n", string_of_int (Digraph.n g))
            :: ("raw_rounds", string_of_int raw)
            :: ("exact", string_of_bool (t.Bfs_tree.dist = expected))
            :: metric_fields m);
          Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
            (cell 5 (string_of_int (Digraph.n g)))
            (cell 5 (Printf.sprintf "%.2f" drop))
            (cell 9 (string_of_int raw))
            (cell 9 (string_of_int (Metrics.rounds m)))
            (cell 9
               (Printf.sprintf "%.1fx" (float_of_int (Metrics.rounds m) /. float_of_int raw)))
            (cell 8 (string_of_int (Metrics.get m Retransmissions)))
            (cell 8 (string_of_int (Metrics.get m Dropped)))
            (cell 6 (if t.Bfs_tree.dist = expected then "yes" else "NO")))
        [ 0.0; 0.1; 0.2; 0.3; 0.5 ])
    families

(* ------------------------------------------------------------------ *)
(* E-F2: crash-amnesia recovery overhead vs checkpoint interval *)

let ef2 () =
  header "E-F2: recovery overhead vs checkpoint interval under crash-amnesia"
    "outputs exact for every interval; zero round overhead when crash-free with \
     checkpointing off; denser checkpoints trade storage words for faster \
     re-convergence after a restart";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 9 "interval"; cell 7 "rounds"; cell 9 "overhead";
      cell 7 "ckpts"; cell 10 "ckpt words"; cell 5 "recov"; cell 7 "resync"; cell 6 "exact";
    ];
  let families =
    [
      ("partial 2-tree", ptk ~seed:41 64 2, [ Fault.crash 11 ~from:3 ~until:15 ~mode:Fault.Amnesia;
                                              Fault.crash 37 ~from:8 ~until:20 ~mode:Fault.Amnesia ]);
      ("partial 3-tree", ptk ~seed:42 128 3, [ Fault.crash 19 ~from:4 ~until:18 ~mode:Fault.Amnesia;
                                               Fault.crash 77 ~from:10 ~until:26 ~mode:Fault.Amnesia ]);
    ]
  in
  List.iter
    (fun (name, g, crashes) ->
      let expected = Traversal.bfs_undirected g 0 in
      (* crash-free plain-transport baseline, and the zero-overhead claim:
         recovery with checkpointing off must match it round for round *)
      let baseline =
        let m = Metrics.create () in
        ignore (Bfs_tree.build ~reliable:true g ~root:0 ~metrics:m);
        Metrics.rounds m
      in
      let row label faults recovery =
        let m = Metrics.create () in
        let t = Bfs_tree.build ?faults ~recovery g ~root:0 ~metrics:m in
        fault_row ~experiment:"E-F2"
          ~scenario:(Printf.sprintf "%s interval=%s" name label)
          (("n", string_of_int (Digraph.n g))
          :: ("baseline_rounds", string_of_int baseline)
          :: ("exact", string_of_bool (t.Bfs_tree.dist = expected))
          :: metric_fields m);
        Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
          (cell 5 (string_of_int (Digraph.n g)))
          (cell 9 label)
          (cell 7 (string_of_int (Metrics.rounds m)))
          (cell 9
             (Printf.sprintf "%.2fx" (float_of_int (Metrics.rounds m) /. float_of_int baseline)))
          (cell 7 (string_of_int (Metrics.get m Checkpoints)))
          (cell 10 (string_of_int (Metrics.get m Checkpoint_words)))
          (cell 5 (string_of_int (Metrics.get m Recoveries)))
          (cell 7 (string_of_int (Metrics.get m Resync_rounds)))
          (cell 6 (if t.Bfs_tree.dist = expected then "yes" else "NO"))
      in
      row "none/off" None { Recovery.checkpoint_every = 0 };
      let faults () =
        (* fresh adversary per run; the crash schedule is fixed by the
           profile, so every interval faces the identical outages *)
        Some (Fault.create ~seed:17 (Fault.profile ~crashes ()))
      in
      List.iter
        (fun interval ->
          row (string_of_int interval) (faults ()) { Recovery.checkpoint_every = interval })
        [ 0; 2; 4; 8; 16 ])
    families

(* ------------------------------------------------------------------ *)
(* E-F3: failure-detector suspicion latency vs heartbeat period *)

let ef3 () =
  header "E-F3: detector suspicion latency vs heartbeat period (partition at round 0)"
    "the first suspicion of a severed link fires within timeout = 3 x period \
     rounds of the last delivery, and the Partial verdict matches the \
     centralized partition oracle";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 6 "period"; cell 7 "timeout"; cell 9 "1st susp";
      cell 7 "latency"; cell 5 "bound"; cell 7 "rounds"; cell 24 "verdict"; cell 6 "ok";
    ];
  let families =
    [
      ("partial 2-tree", ptk ~seed:91 48 2, Fault.Around [ 7 ]);
      ("grid 6x6", Generators.grid 6 6, Fault.Around [ 14 ]);
    ]
  in
  List.iter
    (fun (name, g, cut) ->
      List.iter
        (fun period ->
          let timeout = 3 * period in
          let faults =
            Fault.create ~seed:5
              (Fault.profile ~partitions:[ Fault.partition ~from:0 cut ] ())
          in
          (* lightweight sink: only the first suspicion round matters,
             so don't buffer the whole trace *)
          let first_suspect = ref None in
          let saved = !Engine.trace_sink in
          Engine.trace_sink :=
            Repro_obs.Sink.make (function
              | Repro_obs.Event.Suspect { round; _ } ->
                  if !first_suspect = None then first_suspect := Some round
              | _ -> ());
          let m = Metrics.create () in
          let v =
            match Bfs_tree.build_certified ~faults ~period ~timeout g ~root:0 ~metrics:m with
            | _, v -> Engine.trace_sink := saved; v
            | exception e -> Engine.trace_sink := saved; raise e
          in
          let oracle = Detector.oracle ~faults g ~root:0 in
          let verdict_ok =
            match v with
            | Detector.Complete -> false (* a round-0 cut must be noticed *)
            | Detector.Partial { reachable; _ } -> reachable = oracle
          in
          (* the cut exists from round 0, so latency is measured from the
             start round (= the initial last-heard deadline) *)
          let latency = match !first_suspect with Some r -> r | None -> max_int in
          let ok = verdict_ok && latency <= timeout in
          fault_row ~experiment:"E-F3" ~scenario:(Printf.sprintf "%s period=%d" name period)
            (("n", string_of_int (Digraph.n g))
            :: ("period", string_of_int period)
            :: ("timeout", string_of_int timeout)
            :: ("suspicion_latency", string_of_int latency)
            :: ("latency_bound", string_of_int timeout)
            :: ("verdict", Printf.sprintf "%S" (Format.asprintf "%a" Detector.pp_verdict v))
            :: ("verdict_matches_oracle", string_of_bool verdict_ok)
            :: metric_fields m);
          Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
            (cell 5 (string_of_int (Digraph.n g)))
            (cell 6 (string_of_int period))
            (cell 7 (string_of_int timeout))
            (cell 9 (match !first_suspect with Some r -> string_of_int r | None -> "never"))
            (cell 7 (string_of_int latency))
            (cell 5 (string_of_int timeout))
            (cell 7 (string_of_int (Metrics.rounds m)))
            (cell 24 (Format.asprintf "%a" Detector.pp_verdict v))
            (cell 6 (if ok then "yes" else "NO")))
        [ 2; 4; 8 ])
    families

(* ------------------------------------------------------------------ *)
(* E-F4: α-synchronizer overhead and straggler-tail latency *)

let ef4 () =
  header "E-F4: async executor — synchronizer overhead and straggler-tail latency"
    "outputs, round counts and core traffic counters stay byte-identical to the \
     synchronous engine across timing profiles; the synchronizer's overhead is \
     the per-pulse SAFE fan-out, and the virtual-time makespan stretches with \
     the straggler tail while logical rounds stay fixed";
  table_header
    [
      cell 16 "family"; cell 5 "n"; cell 24 "scenario"; cell 7 "rounds"; cell 7 "pulses";
      cell 9 "safe msg"; cell 9 "vt"; cell 8 "vt/round"; cell 6 "exact";
    ];
  let families =
    [ ("partial 2-tree", ptk ~seed:66 64 2); ("grid 8x8", Generators.grid 8 8) ]
  in
  List.iter
    (fun (name, g) ->
      let expected = Traversal.bfs_undirected g 0 in
      let sync_rounds, sync_messages =
        let m = Metrics.create () in
        ignore (Bfs_tree.build g ~root:0 ~metrics:m);
        (Metrics.rounds m, Metrics.get m Messages)
      in
      let stragglers =
        [ Fault.straggle 5 ~from:2 ~until:10 ~factor:8;
          Fault.straggle 11 ~from:4 ~until:12 ~factor:16 ]
      in
      let scenarios =
        [
          ("nominal (forced async)", Fault.profile ());
          ("link latency 2", Fault.profile ~link_latency:2 ());
          ("clock skew 4", Fault.profile ~skew:4 ());
          ("stragglers x8/x16", Fault.profile ~stragglers ());
          ("straggle+latency+skew", Fault.profile ~stragglers ~link_latency:2 ~skew:3 ());
        ]
      in
      List.iter
        (fun (sname, profile) ->
          let saved = !Async_engine.forced in
          Async_engine.forced := true;
          Fun.protect ~finally:(fun () -> Async_engine.forced := saved) @@ fun () ->
          let m = Metrics.create () in
          let faults = Fault.create ~seed:9 profile in
          let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
          let exact =
            t.Bfs_tree.dist = expected
            && Metrics.rounds m = sync_rounds
            && Metrics.get m Messages = sync_messages
          in
          let vt_per_round =
            float_of_int (Metrics.get m Virtual_time)
            /. float_of_int (max 1 (Metrics.rounds m))
          in
          fault_row ~experiment:"E-F4"
            ~scenario:(Printf.sprintf "%s %s" name sname)
            (("n", string_of_int (Digraph.n g))
            :: ("sync_rounds", string_of_int sync_rounds)
            :: ("vt_per_round", Printf.sprintf "%.2f" vt_per_round)
            :: ("exact", string_of_bool exact)
            :: metric_fields m);
          Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 16 name)
            (cell 5 (string_of_int (Digraph.n g)))
            (cell 24 sname)
            (cell 7 (string_of_int (Metrics.rounds m)))
            (cell 7 (string_of_int (Metrics.get m Pulses)))
            (cell 9 (string_of_int (Metrics.get m Safe_messages)))
            (cell 9 (string_of_int (Metrics.get m Virtual_time)))
            (cell 8 (Printf.sprintf "%.1f" vt_per_round))
            (cell 6 (if exact then "yes" else "NO")))
        scenarios)
    families

(* ------------------------------------------------------------------ *)
(* E-S1: label serving — store size vs the Theorem-2 bound. Rows flush
   to BENCH_serve.json (same shape as BENCH_faults.json) so CI can read
   the size ratios without scraping. Query throughput is measured by
   bench/perf's serve-hot and serve-cold workloads. *)

let serve_rows : string list ref = ref []

let serve_row ~scenario fields =
  let all = ("experiment", "\"E-S1\"") :: ("scenario", Printf.sprintf "%S" scenario) :: fields in
  serve_rows :=
    Printf.sprintf "    {%s}"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) all))
    :: !serve_rows

let flush_serve_json () =
  if !serve_rows <> [] then begin
    let oc = open_out "BENCH_serve.json" in
    output_string oc "{\n  \"rows\": [\n";
    output_string oc (String.concat ",\n" (List.rev !serve_rows));
    output_string oc "\n  ]\n}\n";
    close_out oc;
    Printf.printf "\nwrote BENCH_serve.json (%d rows)\n" (List.length !serve_rows)
  end

let es1 () =
  header "E-S1: label serving — store size (Theorem 2 deployed)"
    "binary store >= 4x smaller than one text line per label on the E2b instances, \
     bits/label tracking tau^2 log^2 n";
  let e2b_instance (family, n) =
    let g =
      match family with
      | `Ptk -> Generators.bidirect ~seed:n ~max_weight:9 (ptk ~seed:n n 3)
      | `Wheel -> Generators.wheel n
    in
    let report, _ = decompose_measured ~seed:2 g in
    let labels = Dl.build g report.Build.decomposition ~metrics:(Metrics.create ()) in
    let name = match family with `Ptk -> "partial 3-tree" | `Wheel -> "heavy wheel" in
    (name, n, g, labels)
  in
  let built =
    List.map e2b_instance
      [ (`Ptk, 128); (`Ptk, 256); (`Ptk, 512); (`Wheel, 128); (`Wheel, 256); (`Wheel, 512) ]
  in
  table_header
    [
      cell 14 "family"; cell 5 "n"; cell 4 "tau"; cell 9 "store B"; cell 9 "text B";
      cell 6 "ratio"; cell 11 "bits/label"; cell 13 "t^2lg^2n bits";
    ];
  List.iter
    (fun (name, n, g, labels) ->
      let bin = Filename.temp_file "bench_serve" ".bin" in
      Store.save bin labels;
      let bin_size = Store.byte_size (Store.open_ bin) in
      Sys.remove bin;
      (* the text baseline: one [Labeling.to_string] line per label *)
      let txt_size =
        Array.fold_left (fun acc la -> acc + String.length (Labeling.to_string la) + 1) 0 labels
      in
      let tau = Heuristic.degeneracy g in
      let ratio = float_of_int txt_size /. float_of_int bin_size in
      let bits_per_label = 8.0 *. float_of_int bin_size /. float_of_int n in
      let bound = float_of_int (tau * tau) *. log2f n *. log2f n in
      serve_row
        ~scenario:(Printf.sprintf "%s n=%d size" name n)
        [
          ("n", string_of_int n);
          ("tau", string_of_int tau);
          ("store_bytes", string_of_int bin_size);
          ("text_bytes", string_of_int txt_size);
          ("text_over_store", Printf.sprintf "%.2f" ratio);
          ("bits_per_label", Printf.sprintf "%.1f" bits_per_label);
          ("bound_bits", Printf.sprintf "%.0f" bound);
        ];
      Printf.printf "   %s | %s | %s | %s | %s | %s | %s | %s\n" (cell 14 name)
        (cell 5 (string_of_int n))
        (cell 4 (string_of_int tau))
        (cell 9 (string_of_int bin_size))
        (cell 9 (string_of_int txt_size))
        (cell 6 (Printf.sprintf "%.2fx" ratio))
        (cell 11 (Printf.sprintf "%.1f" bits_per_label))
        (cell 13 (Printf.sprintf "%.0f" bound)))
    built

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2a", e2a); ("E2b", e2b); ("E3", e3); ("E4", e4);
    ("E5a", e5a); ("E5b", e5b); ("E6a", e6a); ("E6b", e6b); ("E6c", e6c); ("E6d", e6d);
    ("E7", e7); ("E8", e8); ("EF1", ef1); ("EF2", ef2); ("EF3", ef3); ("EF4", ef4);
    ("ES1", es1);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let selected =
    if requested = [] then experiments
    else
      List.filter
        (fun (name, _) ->
          List.exists (fun r -> String.lowercase_ascii r = String.lowercase_ascii name) requested)
        experiments
  in
  Printf.printf
    "Fully Polynomial-Time Distributed Computation in Low-Treewidth Graphs\n";
  Printf.printf
    "reproduction experiment harness (rounds are simulated CONGEST rounds)\n";
  List.iter (fun (_, f) -> f ()) selected;
  flush_fault_json ();
  flush_serve_json ();
  Printf.printf "\nAll experiments completed.\n"
