module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Bellman_ford = Repro_congest.Bellman_ford
module Heuristic = Repro_treedec.Heuristic
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp

(* audit every CONGEST engine run in this suite: accounting drift raises *)
let () = Repro_congest.Engine.audit_enabled := true

module Stateful = Repro_core.Stateful
module Product = Repro_core.Product
module Cdl = Repro_core.Cdl
module Matching = Repro_core.Matching
module Girth = Repro_core.Girth
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Labeling *)

let test_labeling_decode () =
  let la_u = Labeling.create 0 and la_v = Labeling.create 1 in
  Labeling.set la_u ~anchor:5 ~d_to:3 ~d_from:7;
  Labeling.set la_v ~anchor:5 ~d_to:9 ~d_from:2;
  Labeling.set la_u ~anchor:6 ~d_to:1 ~d_from:1;
  check_int "via common anchor 5" 5 (Labeling.decode la_u la_v);
  check_int "reverse direction" 16 (Labeling.decode la_v la_u);
  check_int "size in words" 6 (Labeling.size_words la_u)

let test_labeling_no_common_anchor () =
  let la_u = Labeling.create 0 and la_v = Labeling.create 1 in
  Labeling.set la_u ~anchor:2 ~d_to:1 ~d_from:1;
  Labeling.set la_v ~anchor:3 ~d_to:1 ~d_from:1;
  check_int "inf" Digraph.inf (Labeling.decode la_u la_v)


(* ------------------------------------------------------------------ *)
(* DL exactness *)

let all_pairs_match g dec =
  let m = Metrics.create () in
  let labels = Dl.build g dec ~metrics:m in
  let apsp = Shortest_path.apsp g in
  let n = Digraph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if Labeling.decode labels.(u) labels.(v) <> apsp.(u).(v) then begin
        if !ok then
          Printf.printf "mismatch d(%d,%d): dec=%d dij=%d\n" u v
            (Labeling.decode labels.(u) labels.(v))
            apsp.(u).(v);
        ok := false
      end
    done
  done;
  !ok

let test_dl_path () =
  let g = Generators.random_weights ~seed:1 ~max_weight:9 (Generators.path 10) in
  check_bool "exact on path" true (all_pairs_match g (Heuristic.min_fill g))

let test_dl_grid () =
  let g = Generators.random_weights ~seed:2 ~max_weight:5 (Generators.grid 4 5) in
  check_bool "exact on grid" true (all_pairs_match g (Heuristic.min_fill g))

let test_dl_directed_ktree () =
  let g = Generators.bidirect ~seed:3 ~max_weight:9 (Generators.k_tree ~seed:3 30 3) in
  check_bool "exact on directed k-tree" true (all_pairs_match g (Heuristic.min_fill g))

let test_dl_with_distributed_decomposition () =
  let g = Generators.bidirect ~seed:4 ~max_weight:7 (Generators.k_tree ~seed:4 40 2) in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  check_bool "exact with SEP-built decomposition" true
    (all_pairs_match g report.Build.decomposition)

let test_dl_unreachable () =
  (* directed cycle-free part: some pairs unreachable *)
  let g = Digraph.create ~directed:true 4 [ (0, 1, 2); (1, 2, 3); (3, 2, 1) ] in
  check_bool "handles inf distances" true (all_pairs_match g (Heuristic.min_fill g))

let prop_dl_exact =
  QCheck.Test.make ~name:"DL decode = Dijkstra on random weighted digraphs" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, k) ->
      let g =
        Generators.bidirect ~seed ~max_weight:12
          (Generators.partial_k_tree ~seed 25 k ~keep:0.5)
      in
      all_pairs_match g (Heuristic.min_fill g))

let test_dl_label_size_reported () =
  let g = Generators.k_tree ~seed:5 60 3 in
  let m = Metrics.create () in
  let labels = Dl.build g (Heuristic.min_fill g) ~metrics:m in
  let w = Dl.max_label_words labels in
  check_bool "label smaller than trivial n entries" true (w < 3 * 60);
  check_bool "rounds charged" true (Metrics.rounds m > 0)

(* ------------------------------------------------------------------ *)
(* SSSP via DL *)

let test_sssp_matches_dijkstra () =
  let g = Generators.bidirect ~seed:6 ~max_weight:9 (Generators.k_tree ~seed:6 40 3) in
  let m = Metrics.create () in
  let labels = Dl.build g (Heuristic.min_fill g) ~metrics:m in
  let r = Sssp.run g labels ~source:0 ~metrics:m in
  Alcotest.(check (array int)) "forward" (Shortest_path.dijkstra g 0) r.Sssp.dist_from_source;
  Alcotest.(check (array int)) "backward" (Shortest_path.dijkstra_to g 0) r.Sssp.dist_to_source;
  check_bool "broadcast measured" true (r.Sssp.broadcast_rounds > 0)

(* ------------------------------------------------------------------ *)
(* Stateful walk constraints *)

let test_colored_transitions () =
  let c = Stateful.colored ~colors:2 in
  check_int "|Q|" 4 c.Stateful.q_size;
  let g =
    Digraph.create_labeled ~directed:false 3 [ (0, 1, 1, 0); (1, 2, 1, 1); (2, 0, 1, 1) ]
  in
  (* alternating walk 0-1-2 (colors 0,1): accepted *)
  (match Stateful.walk_state c g [ 0; 1 ] with
  | Ok q -> check_bool "accepted" true (q <> c.Stateful.bot)
  | Error e -> Alcotest.fail e);
  (* walk 1-2-0 uses colors 1,1: rejected *)
  match Stateful.walk_state c g [ 1; 2 ] with
  | Ok q -> check_int "rejected" c.Stateful.bot q
  | Error e -> Alcotest.fail e

let test_count_transitions () =
  let c = Stateful.count ~limit:1 in
  let g =
    Digraph.create_labeled ~directed:true 4
      [ (0, 1, 1, 1); (1, 2, 1, 0); (2, 3, 1, 1) ]
  in
  (match Stateful.walk_state c g [ 0; 1 ] with
  | Ok q -> check_int "one label-1 edge" (Stateful.state_index_count c 1) q
  | Error e -> Alcotest.fail e);
  match Stateful.walk_state c g [ 0; 1; 2 ] with
  | Ok q -> check_int "two exceeds limit" c.Stateful.bot q
  | Error e -> Alcotest.fail e

let test_walk_state_rejects_non_walk () =
  let c = Stateful.count ~limit:1 in
  let g = Digraph.create ~directed:true 4 [ (0, 1, 1); (2, 3, 1) ] in
  match Stateful.walk_state c g [ 0; 1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected non-walk error"

let test_parity_never_rejects () =
  let c = Stateful.parity in
  let g = Digraph.create_labeled ~directed:true 2 [ (0, 1, 1, 1); (1, 0, 1, 1) ] in
  match Stateful.walk_state c g [ 0; 1; 0; 1 ] with
  | Ok q -> check_bool "even parity" true (q = 2)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Product graph (Lemma 5) *)

let test_product_counts () =
  let c = Stateful.colored ~colors:2 in
  let g = Digraph.create_labeled ~directed:true 2 [ (0, 1, 5, 0) ] in
  let p = Product.build g c in
  check_int "vertices" (2 * 4) (Digraph.n p.Product.product);
  (* condition 1: 4 states transitions; condition 2: 3 drop edges per vertex *)
  check_int "edges" (4 + (2 * 3)) (Digraph.m p.Product.product)

let test_product_colored_distance () =
  (* triangle where direct edge 0-2 repeats the color of 0-1 paths *)
  let g =
    Digraph.create_labeled ~directed:false 3
      [ (0, 1, 1, 0); (1, 2, 1, 0); (0, 2, 10, 1) ]
  in
  let c = Stateful.colored ~colors:2 in
  let p = Product.build g c in
  (* 0 -> 2 monochromatic path 0-1-2 is rejected: must use weight-10 edge
     or alternate 0-2 directly *)
  let d01 = Product.constrained_distance p ~q:(Stateful.state_index_color c 0) ~src:0 ~dst:1 in
  check_int "one hop color 0" 1 d01;
  let best =
    min
      (Product.constrained_distance p ~q:(Stateful.state_index_color c 0) ~src:0 ~dst:2)
      (Product.constrained_distance p ~q:(Stateful.state_index_color c 1) ~src:0 ~dst:2)
  in
  check_int "colored 0->2 distance" 10 best

let test_product_walk_extraction () =
  let g =
    Digraph.create_labeled ~directed:false 3
      [ (0, 1, 1, 0); (1, 2, 1, 1); (0, 2, 10, 1) ]
  in
  let c = Stateful.colored ~colors:2 in
  let p = Product.build g c in
  match Product.shortest_constrained_walk p ~q:(Stateful.state_index_color c 1) ~src:0 ~dst:2 with
  | Some [ 0; 1 ] -> ()
  | Some w -> Alcotest.failf "unexpected walk [%s]" (String.concat ";" (List.map string_of_int w))
  | None -> Alcotest.fail "expected a walk"

let prop_product_matches_brute_force =
  QCheck.Test.make ~name:"product distances = brute-force constrained walks" ~count:20
    QCheck.(pair (int_range 0 500) (int_range 4 9))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed; 77 |] in
      let g0 = Generators.gnp_connected ~seed n 0.3 in
      let g =
        Digraph.with_labels
          (Generators.random_weights ~seed ~max_weight:4 g0)
          (fun _ -> Random.State.int rng 2)
      in
      let c = Stateful.count ~limit:1 in
      let p = Product.build g c in
      (* brute force: Bellman-Ford-style DP over (vertex, count) *)
      let inf = Digraph.inf in
      let dp = Array.make_matrix n 2 inf in
      dp.(0).(0) <- 0;
      for _ = 1 to 2 * n do
        Array.iter
          (fun e ->
            let relax u v =
              let bit = if e.Digraph.label <> 0 then 1 else 0 in
              for k = 0 to 1 - bit do
                if dp.(u).(k) < inf && dp.(u).(k) + e.Digraph.weight < dp.(v).(k + bit)
                then dp.(v).(k + bit) <- dp.(u).(k) + e.Digraph.weight
              done
            in
            relax e.Digraph.src e.Digraph.dst;
            relax e.Digraph.dst e.Digraph.src)
          (Digraph.edges g)
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let d0 = Product.constrained_distance p ~q:(Stateful.state_index_count c 0) ~src:0 ~dst:v in
        let d1 = Product.constrained_distance p ~q:(Stateful.state_index_count c 1) ~src:0 ~dst:v in
        (* v = 0 at count 0: the DP counts the empty walk but the paper's
           M maps the empty walk to nabla, not to count 0 — the product is
           over nonempty walks there (the girth algorithm relies on this),
           so skip that one comparison *)
        if v <> 0 && d0 <> dp.(v).(0) then ok := false;
        if d1 <> dp.(v).(1) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* CDL (Theorem 3) *)

let test_cdl_matches_product_oracle () =
  let rng = Random.State.make [| 42 |] in
  let g0 = Generators.k_tree ~seed:11 20 2 in
  let g =
    Digraph.with_labels (Generators.random_weights ~seed:11 ~max_weight:6 g0) (fun _ ->
        Random.State.int rng 2)
  in
  let c = Stateful.count ~limit:1 in
  let m = Metrics.create () in
  let cdl = Cdl.build ~dec:(Heuristic.min_fill g) g c ~metrics:m in
  let p = Cdl.product cdl in
  let n = Digraph.n g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "sdec q=%d %d->%d" q src dst)
            (Product.constrained_distance p ~q ~src ~dst)
            (Cdl.sdec cdl ~q ~src ~dst))
        [ Stateful.state_index_count c 0; Stateful.state_index_count c 1 ]
    done
  done;
  check_bool "rounds charged with overhead" true (Metrics.rounds m > 0)

let test_cdl_label_words () =
  let g = Generators.k_tree ~seed:12 25 2 in
  let m = Metrics.create () in
  let cdl = Cdl.build ~dec:(Heuristic.min_fill g) g (Stateful.colored ~colors:2) ~metrics:m in
  check_bool "label has content" true (Cdl.label_words cdl 0 > 0)

let test_cdl_shortest_walk_charges () =
  let g =
    Digraph.create_labeled ~directed:false 3 [ (0, 1, 1, 0); (1, 2, 1, 1) ]
  in
  let c = Stateful.colored ~colors:2 in
  let m = Metrics.create () in
  let cdl = Cdl.build ~dec:(Heuristic.min_fill g) g c ~metrics:m in
  let before = Metrics.rounds m in
  (match Cdl.shortest_walk cdl ~q:(Stateful.state_index_color c 1) ~src:0 ~dst:2 ~metrics:m with
  | Some [ 0; 1 ] -> ()
  | _ -> Alcotest.fail "expected walk 0;1");
  check_bool "walk extraction charged" true (Metrics.rounds m > before)

(* ------------------------------------------------------------------ *)
(* Exact bipartite maximum matching (Theorem 4) *)

let check_matching g r =
  check_bool "valid matching" true (Matching_ref.is_matching (Digraph.skeleton g) r.Matching.mate);
  check_int "maximum size" (Matching_ref.size (Matching_ref.hopcroft_karp (Digraph.skeleton g)))
    r.Matching.size

let test_matching_grid_charged () =
  let g = Generators.grid 5 6 in
  let m = Metrics.create () in
  let r = Matching.run ~mode:`Charged g ~metrics:m in
  check_matching g r;
  check_bool "rounds charged" true (Metrics.rounds m > 0)

let test_matching_small_faithful () =
  let g = Generators.grid 3 4 in
  let m = Metrics.create () in
  let r = Matching.run ~mode:`Faithful g ~metrics:m in
  check_matching g r

let test_matching_tree () =
  let g = Generators.binary_tree 4 in
  let m = Metrics.create () in
  check_matching g (Matching.run g ~metrics:m)

let test_matching_subdivided_ktree () =
  let g = Generators.subdivide (Generators.k_tree ~seed:8 25 3) in
  let m = Metrics.create () in
  check_matching g (Matching.run g ~metrics:m)

let test_matching_rejects_odd_cycle () =
  let m = Metrics.create () in
  check_bool "raises" true
    (try
       ignore (Matching.run (Generators.cycle 5) ~metrics:m);
       false
     with Invalid_argument _ -> true)

let test_matching_baseline_agrees () =
  let g = Generators.grid 4 5 in
  let m = Metrics.create () in
  let r = Matching.sequential_baseline g ~metrics:m in
  check_matching g r;
  check_bool "baseline rounds grow with s_max" true
    (Metrics.rounds m >= r.Matching.size)

let prop_matching_maximum =
  QCheck.Test.make ~name:"distributed matching = Hopcroft-Karp size" ~count:12
    QCheck.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, k) ->
      let seed = abs seed and k = max 2 (min 4 k) in
      let g = Generators.subdivide (Generators.partial_k_tree ~seed 20 k ~keep:0.5) in
      let m = Metrics.create () in
      let r = Matching.run ~seed g ~metrics:m in
      Matching_ref.is_matching (Digraph.skeleton g) r.Matching.mate
      && r.Matching.size = Matching_ref.size (Matching_ref.hopcroft_karp (Digraph.skeleton g)))

(* ------------------------------------------------------------------ *)
(* Girth (Theorem 5) *)

let test_girth_directed_cycle () =
  let g =
    Digraph.create ~directed:true 4 [ (0, 1, 2); (1, 2, 3); (2, 3, 4); (3, 0, 1) ]
  in
  let m = Metrics.create () in
  let r = Girth.directed g ~metrics:m in
  check_int "cycle girth" 10 r.Girth.girth

let test_girth_directed_matches_reference () =
  let g = Generators.bidirect ~seed:9 ~max_weight:8 (Generators.k_tree ~seed:9 25 2) in
  let m = Metrics.create () in
  let r = Girth.directed g ~metrics:m in
  check_int "matches centralized" (Girth_ref.girth g) r.Girth.girth

let test_girth_directed_acyclic () =
  let g = Digraph.create ~directed:true 3 [ (0, 1, 1); (0, 2, 1); (1, 2, 1) ] in
  let m = Metrics.create () in
  check_int "inf" Digraph.inf (Girth.directed g ~metrics:m).Girth.girth

let test_girth_undirected_peredge_exact () =
  let g = Generators.random_weights ~seed:10 ~max_weight:6 (Generators.grid 3 4) in
  let m = Metrics.create () in
  let r = Girth.undirected ~mode:`PerEdge g ~metrics:m in
  check_int "per-edge mode exact" (Girth_ref.girth g) r.Girth.girth;
  check_int "m trials" (Digraph.m g) r.Girth.trials

let test_girth_undirected_randomized () =
  let g = Generators.random_weights ~seed:11 ~max_weight:4 (Generators.cycle 8) in
  let m = Metrics.create () in
  let r = Girth.undirected ~mode:`Charged ~repeats:12 ~seed:3 g ~metrics:m in
  check_int "randomized finds the cycle" (Girth_ref.girth g) r.Girth.girth

let test_girth_undirected_upper_bound_always () =
  (* whatever the randomness, the output is >= g (Lemma 6) *)
  for seed = 0 to 5 do
    let g = Generators.random_weights ~seed ~max_weight:5 (Generators.k_tree ~seed 14 2) in
    let m = Metrics.create () in
    let r = Girth.undirected ~mode:`Charged ~repeats:2 ~seed g ~metrics:m in
    check_bool "upper bound" true (r.Girth.girth >= Girth_ref.girth g)
  done

let test_girth_undirected_faithful_small () =
  let g = Generators.random_weights ~seed:12 ~max_weight:3 (Generators.cycle 6) in
  let m = Metrics.create () in
  let r = Girth.undirected ~mode:`Faithful ~repeats:6 ~seed:1 g ~metrics:m in
  check_int "faithful labels agree" (Girth_ref.girth g) r.Girth.girth;
  check_bool "rounds charged" true (Metrics.rounds m > 0);
  (* `Charged computes its trial values centrally, without the product
     graph: at the same seed and repeats it must return what the CDL
     construction of `Faithful returns, upper bounds included *)
  let agree name g ~repeats ~seed =
    let run mode = Girth.undirected ~mode ~repeats ~seed g ~metrics:(Metrics.create ()) in
    let f = run `Faithful and c = run `Charged in
    let name = Printf.sprintf "%s, seed %d" name seed in
    check_int (name ^ ": girth") f.Girth.girth c.Girth.girth;
    check_int (name ^ ": trials") f.Girth.trials c.Girth.trials
  in
  agree "cycle 6" g ~repeats:6 ~seed:1;
  List.iter
    (fun (name, g) -> List.iter (fun seed -> agree name g ~repeats:2 ~seed) [ 1; 2; 3 ])
    [
      ( "weighted cycle 12",
        Generators.random_weights ~seed:13 ~max_weight:5 (Generators.cycle 12) );
      ( "weighted partial 2-tree",
        Generators.random_weights ~seed:14 ~max_weight:5
          (Generators.partial_k_tree ~seed:14 40 2 ~keep:0.6) );
      ("grid 4x4", Generators.grid 4 4);
      ("apex 3-cliques", Generators.apex_cliques ~cliques:4 ~size:3);
    ]

let test_girth_tree_no_cycle () =
  let g = Generators.binary_tree 3 in
  let m = Metrics.create () in
  let r = Girth.undirected ~mode:`PerEdge g ~metrics:m in
  check_int "acyclic" Digraph.inf r.Girth.girth

let prop_girth_peredge_exact =
  QCheck.Test.make ~name:"per-edge girth = centralized reference" ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 8 20))
    (fun (seed, n) ->
      let seed = abs seed and n = max 8 (min 20 n) in
      let g =
        Generators.random_weights ~seed ~max_weight:7 (Generators.gnp_connected ~seed n 0.2)
      in
      let m = Metrics.create () in
      (Girth.undirected ~mode:`PerEdge ~seed g ~metrics:m).Girth.girth = Girth_ref.girth g)

(* the generators only make simple graphs with weights >= 1: this one adds
   zero-weight edges, parallel edges and self-loops, the cases where a
   bounded closing-path search can stop one step too early *)
let prop_girth_multigraph =
  QCheck.Test.make ~name:"girth on weighted multigraphs: per-edge exact, charged >= g"
    ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 4 12))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed; n |] in
      let w () = Random.State.int rng 6 in
      let tree = List.init (n - 1) (fun i -> (Random.State.int rng (i + 1), i + 1, w ())) in
      let extra =
        List.init (n + Random.State.int rng (2 * n)) (fun _ ->
            match Random.State.int rng 4 with
            | 0 -> let v = Random.State.int rng n in (v, v, w ())
            | 1 -> let u, v, _ = List.nth tree (Random.State.int rng (n - 1)) in (u, v, w ())
            | _ -> (Random.State.int rng n, Random.State.int rng n, w ()))
      in
      let g = Digraph.create ~directed:false n (tree @ extra) in
      let g_ref = Girth_ref.girth g in
      let girth ?repeats mode =
        (Girth.undirected ~mode ?repeats ~seed g ~metrics:(Metrics.create ())).Girth.girth
      in
      girth `PerEdge = g_ref && girth ~repeats:4 `Charged >= g_ref)

(* ------------------------------------------------------------------ *)
(* Goldens: girth values, trial counts, label bytes and metrics JSON,
   captured before the centralized inner loops of Girth and Dl.build were
   rewritten; a speedup there must leave every one byte-identical *)

let golden_girth_cases =
  let ptk =
    Generators.random_weights ~seed:96 ~max_weight:9
      (Generators.partial_k_tree ~seed:96 96 3 ~keep:0.6)
  in
  [
    ( "charged ptk n=96",
      (fun m -> Girth.undirected ~mode:`Charged ~seed:1 ptk ~metrics:m),
      (5, 88,
        {|{"rounds":350978,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"girth/trials":346368,"girth/cdl":3936,"treedec/level":534,"treedec/ccd":140}}|}) );
    ( "charged apex cliques 16x4",
      (fun m ->
        Girth.undirected ~mode:`Charged ~repeats:3 ~seed:1
          (Generators.apex_cliques ~cliques:16 ~size:4) ~metrics:m),
      (3, 24,
        {|{"rounds":14642,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"girth/trials":13920,"girth/cdl":580,"treedec/level":114,"treedec/ccd":28}}|}) );
    ( "per-edge grid 4x4",
      (fun m ->
        Girth.undirected ~mode:`PerEdge ~seed:1
          (Generators.random_weights ~seed:4 ~max_weight:9 (Generators.grid 4 4)) ~metrics:m),
      (13, 24,
        {|{"rounds":31050,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"girth/trials":29624,"girth/cdl":1288,"treedec/level":98,"treedec/ccd":40}}|}) );
  ]

let golden_girth run (girth, trials, json) () =
  let m = Metrics.create () in
  let r = run m in
  check_int "girth" girth r.Girth.girth;
  check_int "trials" trials r.Girth.trials;
  Alcotest.(check string) "metrics json" json (Metrics.to_json m)

let labels_digest labels =
  let buf = Buffer.create 65536 in
  Array.iter (fun la -> Buffer.add_string buf (Labeling.to_string la ^ "\n")) labels;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_label_cases =
  let decomposition g =
    (Build.decompose ~seed:1 g ~metrics:(Metrics.create ())).Build.decomposition
  in
  let dl g m = Dl.build g (decomposition g) ~metrics:m in
  let ptk256 =
    Generators.bidirect ~seed:256 ~max_weight:9
      (Generators.partial_k_tree ~seed:256 256 3 ~keep:0.6)
  in
  let coloured =
    Digraph.with_labels
      (Generators.bidirect ~seed:96 ~max_weight:9
         (Generators.partial_k_tree ~seed:96 96 3 ~keep:0.6))
      (fun e -> Hashtbl.hash (96, e.Digraph.id) mod 3)
  in
  let cdl spec m =
    Cdl.labels (Cdl.build ~dec:(decomposition coloured) ~seed:1 coloured spec ~metrics:m)
  in
  [
    ( "dl directed ptk n=256",
      dl ptk256,
      ("0e76fa0cf01c3418963a49409c1a702e",
        {|{"rounds":252,"messages":4544,"words":4544,"delivered":4544,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"dl/level":224,"bfs-tree":28}}|}) );
    ( "dl undirected 2-tree",
      dl (Generators.random_weights ~seed:128 ~max_weight:9 (Generators.k_tree ~seed:128 128 2)),
      ("e218564864e2e6baf52e0c65e883c523",
        {|{"rounds":126,"messages":1518,"words":1518,"delivered":1518,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"dl/level":108,"bfs-tree":18}}|}) );
    (* every level's flood merged into the metrics under the forced
       synchronizer: pulses and SAFE messages add up, the virtual time is
       a high-water mark *)
    ( "dl directed ptk n=256 forced async",
      (fun m ->
        let forced = !Repro_congest.Async_engine.forced in
        Repro_congest.Async_engine.forced := true;
        Fun.protect
          ~finally:(fun () -> Repro_congest.Async_engine.forced := forced)
          (fun () -> dl ptk256 m)),
      ("0e76fa0cf01c3418963a49409c1a702e",
        {|{"rounds":252,"messages":4544,"words":4544,"delivered":4544,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":7168,"safe_messages":31808,"straggles":0,"virtual_time":25,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"dl/level":224,"bfs-tree":28}}|}) );
    (* min-fill bags are not sorted, and this decomposition has 22 levels *)
    ( "dl min-fill grid 7x8",
      (fun m ->
        let g = Generators.random_weights ~seed:2 ~max_weight:5 (Generators.grid 7 8) in
        Dl.build g (Heuristic.min_fill g) ~metrics:m),
      ("c8b99ea6260d5bcb9f2b408f8690383d",
        {|{"rounds":1290,"messages":4268,"words":4268,"delivered":4268,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"dl/level":960,"bfs-tree":330}}|}) );
    ( "dl wheel n=200",
      dl (Generators.wheel 200),
      ("6ca140b3db96513add210bac0ac2d6ae",
        {|{"rounds":224,"messages":3980,"words":3980,"delivered":3980,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"dl/level":204,"bfs-tree":20}}|}) );
    ( "cdl parity",
      cdl Stateful.parity,
      ("03a32cf30d30f760e9f84e6be7137919", {|{"rounds":8712,"messages":72240,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"cdl/simulated":8712}}|}) );
    ( "cdl count:2",
      cdl (Stateful.count ~limit:2),
      ("b82604a8d41229a266847dcb64c8881f", {|{"rounds":13630,"messages":129240,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"cdl/simulated":13630}}|}) );
    ( "cdl colored:3",
      cdl (Stateful.colored ~colors:3),
      ("2dea34fb752c5f49d9dcda0bad99d105", {|{"rounds":15340,"messages":123720,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"cdl/simulated":15340}}|}) );
  ]

let golden_labels run (digest, json) () =
  let m = Metrics.create () in
  let labels = run m in
  Alcotest.(check string) "label digest" digest (labels_digest labels);
  Alcotest.(check string) "metrics json" json (Metrics.to_json m)


(* ------------------------------------------------------------------ *)
(* DFA-based stateful constraints *)

let test_dfa_generalizes_forbidden () =
  (* DFA with a single state accepting only label-0 edges *)
  let c =
    Stateful.of_dfa ~name:"zeros" ~states:1 ~delta:(fun _ l ->
        if l = 0 then Some 0 else None)
  in
  let g =
    Digraph.create_labeled ~directed:true 3 [ (0, 1, 1, 0); (1, 2, 1, 1) ]
  in
  (match Stateful.walk_state c g [ 0 ] with
  | Ok q -> check_int "accepted in state 0" (Stateful.state_index_dfa c 0) q
  | Error e -> Alcotest.fail e);
  match Stateful.walk_state c g [ 0; 1 ] with
  | Ok q -> check_int "rejected on label 1" c.Stateful.bot q
  | Error e -> Alcotest.fail e

let test_dfa_pattern_distance () =
  (* accept label sequences matching (0 1)*: two states *)
  let c =
    Stateful.of_dfa ~name:"alternate01" ~states:2 ~delta:(fun s l ->
        match (s, l) with 0, 0 -> Some 1 | 1, 1 -> Some 0 | _ -> None)
  in
  (* path with labels 0,1,0,1: full walk ends in state 0 *)
  let g =
    Digraph.create_labeled ~directed:true 5
      [ (0, 1, 2, 0); (1, 2, 3, 1); (2, 3, 4, 0); (3, 4, 5, 1) ]
  in
  let p = Product.build g c in
  check_int "full pattern walk" 14
    (Product.constrained_distance p ~q:(Stateful.state_index_dfa c 0) ~src:0 ~dst:4);
  check_int "one edge reaches mid-state" 2
    (Product.constrained_distance p ~q:(Stateful.state_index_dfa c 1) ~src:0 ~dst:1);
  check_int "two edges complete one pattern round" 5
    (Product.constrained_distance p ~q:(Stateful.state_index_dfa c 0) ~src:0 ~dst:2);
  check_int "mid-state unreachable at even point" Digraph.inf
    (Product.constrained_distance p ~q:(Stateful.state_index_dfa c 0) ~src:0 ~dst:1)

let test_dfa_cdl_roundtrip () =
  let rng = Random.State.make [| 5 |] in
  let g0 = Generators.k_tree ~seed:15 16 2 in
  let g = Digraph.with_labels g0 (fun _ -> Random.State.int rng 2) in
  let c =
    Stateful.of_dfa ~name:"even-ones" ~states:2 ~delta:(fun s l ->
        Some (if l = 1 then 1 - s else s))
  in
  let m = Metrics.create () in
  let cdl = Cdl.build ~dec:(Heuristic.min_fill g0) g c ~metrics:m in
  let p = Cdl.product cdl in
  for dst = 0 to 15 do
    List.iter
      (fun q ->
        check_int "sdec matches product oracle"
          (Product.constrained_distance p ~q ~src:0 ~dst)
          (Cdl.sdec cdl ~q ~src:0 ~dst))
      [ Stateful.state_index_dfa c 0; Stateful.state_index_dfa c 1 ]
  done


(* ------------------------------------------------------------------ *)
(* Routing from labels *)

module Routing = Repro_core.Routing

let routing_fixture seed =
  let g = Generators.bidirect ~seed ~max_weight:9 (Generators.k_tree ~seed 30 3) in
  let m = Metrics.create () in
  let labels = Dl.build g (Heuristic.min_fill g) ~metrics:m in
  (g, Routing.prepare g labels ~metrics:m, labels, m)

let test_routing_follows_shortest_paths () =
  let g, table, labels, m = routing_fixture 21 in
  check_bool "exchange charged" true (Metrics.rounds m > 0);
  let n = Digraph.n g in
  for src = 0 to n - 1 do
    let dist = Shortest_path.dijkstra g src in
    List.iter
      (fun dst ->
        match Routing.route table ~src ~dst with
        | Some path ->
            check_int "starts at src" src (List.hd path);
            check_int "ends at dst" dst (List.nth path (List.length path - 1));
            (* path length equals the decoded (= exact) distance *)
            let rec length acc = function
              | a :: (b :: _ as rest) ->
                  let w =
                    Array.to_list (Digraph.out_edges g a)
                    |> List.filter_map (fun ei ->
                           let e = Digraph.edge g ei in
                           if Digraph.dst_of g e a = b then Some e.Digraph.weight
                           else None)
                    |> List.fold_left min Digraph.inf
                  in
                  length (acc + w) rest
              | _ -> acc
            in
            check_int "length = distance" dist.(dst) (length 0 path)
        | None -> check_int "unreachable" Digraph.inf dist.(dst))
      [ 0; 7; 29 ]
  done;
  ignore labels

let test_routing_self () =
  let _, table, _, _ = routing_fixture 22 in
  (match Routing.route table ~src:5 ~dst:5 with
  | Some [ 5 ] -> ()
  | _ -> Alcotest.fail "self route should be the trivial path");
  check_bool "no next hop to self" true (Routing.next_hop table ~at:5 ~dst:5 = None)

(* ------------------------------------------------------------------ *)
(* Girth witness *)

let check_cycle g cycle expected_weight =
  (* edges must form a closed walk of the right weight *)
  let weight =
    List.fold_left (fun acc ei -> acc + (Digraph.edge g ei).Digraph.weight) 0 cycle
  in
  check_int "cycle weight" expected_weight weight;
  (* each vertex is entered as often as it is left *)
  let degree = Hashtbl.create 8 in
  List.iter
    (fun ei ->
      let e = Digraph.edge g ei in
      let bump v d =
        Hashtbl.replace degree v (d + Option.value ~default:0 (Hashtbl.find_opt degree v))
      in
      if Digraph.directed g then begin
        bump e.Digraph.src 1;
        bump e.Digraph.dst (-1)
      end
      else begin
        bump e.Digraph.src 1;
        bump e.Digraph.dst 1
      end)
    cycle;
  Hashtbl.iter
    (fun _ d ->
      if Digraph.directed g then check_int "balanced in/out" 0 d
      else check_int "even degree" 0 (d mod 2))
    degree

let test_girth_witness_undirected () =
  let g = Generators.random_weights ~seed:23 ~max_weight:6 (Generators.grid 3 4) in
  let m = Metrics.create () in
  match Girth.witness g ~metrics:m with
  | Some (girth, cycle) ->
      check_int "value matches reference" (Girth_ref.girth g) girth;
      check_cycle g cycle girth
  | None -> Alcotest.fail "grid has cycles"

let test_girth_witness_directed () =
  let g = Generators.bidirect ~seed:24 ~max_weight:6 (Generators.cycle 7) in
  let m = Metrics.create () in
  match Girth.witness g ~metrics:m with
  | Some (girth, cycle) ->
      check_int "value matches reference" (Girth_ref.girth g) girth;
      check_cycle g cycle girth
  | None -> Alcotest.fail "expected a cycle"

let test_girth_witness_acyclic () =
  let g = Generators.binary_tree 3 in
  let m = Metrics.create () in
  check_bool "no witness" true (Girth.witness g ~metrics:m = None)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_dl_exact;
        prop_product_matches_brute_force;
        prop_matching_maximum;
        prop_girth_peredge_exact;
        prop_girth_multigraph;
      ]
  in
  Alcotest.run "repro_core"
    [
      ( "labeling",
        [
          Alcotest.test_case "decode" `Quick test_labeling_decode;
          Alcotest.test_case "no common anchor" `Quick test_labeling_no_common_anchor;
        ] );
      ( "distance labeling",
        [
          Alcotest.test_case "path" `Quick test_dl_path;
          Alcotest.test_case "grid" `Quick test_dl_grid;
          Alcotest.test_case "directed k-tree" `Quick test_dl_directed_ktree;
          Alcotest.test_case "distributed decomposition" `Quick
            test_dl_with_distributed_decomposition;
          Alcotest.test_case "unreachable pairs" `Quick test_dl_unreachable;
          Alcotest.test_case "label size" `Quick test_dl_label_size_reported;
        ] );
      ("sssp", [ Alcotest.test_case "matches dijkstra" `Quick test_sssp_matches_dijkstra ]);
      ( "stateful",
        [
          Alcotest.test_case "colored" `Quick test_colored_transitions;
          Alcotest.test_case "count" `Quick test_count_transitions;
          Alcotest.test_case "non-walk" `Quick test_walk_state_rejects_non_walk;
          Alcotest.test_case "parity" `Quick test_parity_never_rejects;
        ] );
      ( "product",
        [
          Alcotest.test_case "counts" `Quick test_product_counts;
          Alcotest.test_case "colored distance" `Quick test_product_colored_distance;
          Alcotest.test_case "walk extraction" `Quick test_product_walk_extraction;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "forbidden equivalent" `Quick test_dfa_generalizes_forbidden;
          Alcotest.test_case "pattern distance" `Quick test_dfa_pattern_distance;
          Alcotest.test_case "cdl roundtrip" `Quick test_dfa_cdl_roundtrip;
        ] );
      ( "cdl",
        [
          Alcotest.test_case "matches oracle" `Quick test_cdl_matches_product_oracle;
          Alcotest.test_case "label words" `Quick test_cdl_label_words;
          Alcotest.test_case "shortest walk" `Quick test_cdl_shortest_walk_charges;
        ] );
      ( "matching",
        [
          Alcotest.test_case "grid charged" `Quick test_matching_grid_charged;
          Alcotest.test_case "small faithful" `Slow test_matching_small_faithful;
          Alcotest.test_case "tree" `Quick test_matching_tree;
          Alcotest.test_case "subdivided k-tree" `Quick test_matching_subdivided_ktree;
          Alcotest.test_case "odd cycle rejected" `Quick test_matching_rejects_odd_cycle;
          Alcotest.test_case "baseline" `Quick test_matching_baseline_agrees;
        ] );
      ( "girth",
        [
          Alcotest.test_case "directed cycle" `Quick test_girth_directed_cycle;
          Alcotest.test_case "directed reference" `Quick test_girth_directed_matches_reference;
          Alcotest.test_case "directed acyclic" `Quick test_girth_directed_acyclic;
          Alcotest.test_case "per-edge exact" `Quick test_girth_undirected_peredge_exact;
          Alcotest.test_case "randomized" `Quick test_girth_undirected_randomized;
          Alcotest.test_case "upper bound always" `Quick test_girth_undirected_upper_bound_always;
          Alcotest.test_case "faithful small" `Slow test_girth_undirected_faithful_small;
          Alcotest.test_case "tree" `Quick test_girth_tree_no_cycle;
        ] );
      ( "routing",
        [
          Alcotest.test_case "shortest paths" `Quick test_routing_follows_shortest_paths;
          Alcotest.test_case "self" `Quick test_routing_self;
        ] );
      ( "girth witness",
        [
          Alcotest.test_case "undirected" `Quick test_girth_witness_undirected;
          Alcotest.test_case "directed" `Quick test_girth_witness_directed;
          Alcotest.test_case "acyclic" `Quick test_girth_witness_acyclic;
        ] );
      ( "golden girth",
        List.map
          (fun (name, run, expected) -> Alcotest.test_case name `Quick (golden_girth run expected))
          golden_girth_cases );
      ( "golden labels",
        List.map
          (fun (name, run, expected) -> Alcotest.test_case name `Quick (golden_labels run expected))
          golden_label_cases );
      ("properties", qsuite);
    ]
