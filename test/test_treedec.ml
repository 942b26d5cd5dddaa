module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Primitives = Repro_shortcut.Primitives
module Decomposition = Repro_treedec.Decomposition
module Heuristic = Repro_treedec.Heuristic
module Split = Repro_treedec.Split
module Separator = Repro_treedec.Separator
module Build = Repro_treedec.Build

(* audit every CONGEST engine run in this suite: accounting drift raises *)
let () = Repro_congest.Engine.audit_enabled := true

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_valid msg dec =
  match Decomposition.validate dec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" msg e

(* ------------------------------------------------------------------ *)
(* Decomposition type *)

let test_decomposition_create_and_accessors () =
  let g = Generators.path 4 in
  let dec =
    Decomposition.create g
      [ ([], [| 1; 2 |]); ([ 0 ], [| 0; 1 |]); ([ 1 ], [| 2; 3 |]) ]
  in
  check_int "width" 1 (Decomposition.width dec);
  check_int "depth" 1 (Decomposition.depth dec);
  check_int "bags" 3 (Decomposition.bag_count dec);
  Alcotest.(check (list int)) "children of root" [ 0; 1 ] (Decomposition.children dec []);
  check_valid "path decomposition" dec

let test_decomposition_rejects_gap () =
  let g = Generators.path 3 in
  check_bool "non-contiguous child rejected" true
    (try
       ignore (Decomposition.create g [ ([], [| 0 |]); ([ 1 ], [| 1; 2 |]) ]);
       false
     with Invalid_argument _ -> true)

let test_decomposition_detects_uncovered_vertex () =
  let g = Generators.path 3 in
  let dec = Decomposition.create g [ ([], [| 0; 1 |]) ] in
  match Decomposition.validate dec with
  | Error e -> check_bool "mentions (a)" true (String.length e > 0)
  | Ok () -> Alcotest.fail "expected condition (a) failure"

let test_decomposition_detects_uncovered_edge () =
  let g = Generators.cycle 3 in
  let dec =
    Decomposition.create g [ ([], [| 0; 1 |]); ([ 0 ], [| 1; 2 |]) ]
  in
  match Decomposition.validate dec with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "edge (0,2) uncovered, expected failure"

let test_decomposition_detects_disconnected_bags () =
  let g = Generators.path 5 in
  (* vertex 0 occurs in two bags whose connecting bag omits it *)
  let dec =
    Decomposition.create g
      [ ([], [| 0; 1 |]); ([ 0 ], [| 1; 2 |]); ([ 0; 0 ], [| 2; 3; 0 |]); ([ 0; 0; 0 ], [| 3; 4 |]) ]
  in
  match Decomposition.validate dec with
  | Error e -> check_bool "mentions (c)" true (String.length e > 0)
  | Ok () -> Alcotest.fail "expected condition (c) failure"

let test_canonical_and_b_up () =
  let g = Generators.path 4 in
  let dec =
    Decomposition.create g
      [ ([], [| 1; 2 |]); ([ 0 ], [| 0; 1 |]); ([ 1 ], [| 2; 3 |]) ]
  in
  Alcotest.(check (list int)) "canonical of 1 is root" [] (Decomposition.canonical dec 1);
  Alcotest.(check (list int)) "canonical of 0" [ 0 ] (Decomposition.canonical dec 0);
  Alcotest.(check (array int)) "b_up of 0" [| 0; 1; 2 |] (Decomposition.b_up dec 0);
  Alcotest.(check (array int)) "b_up of 2" [| 1; 2 |] (Decomposition.b_up dec 2)

(* ------------------------------------------------------------------ *)
(* Heuristics *)

let test_minfill_ktree_exact () =
  (* min-fill recovers the exact treewidth of a k-tree *)
  List.iter
    (fun k ->
      let g = Generators.k_tree ~seed:(100 + k) 40 k in
      let dec = Heuristic.min_fill g in
      check_valid "min-fill" dec;
      check_int (Printf.sprintf "width of %d-tree" k) k (Decomposition.width dec))
    [ 1; 2; 3; 4 ]

let test_minfill_cycle () =
  let dec = Heuristic.min_fill (Generators.cycle 9) in
  check_valid "cycle" dec;
  check_int "cycle width" 2 (Decomposition.width dec)

let test_degeneracy_bounds () =
  let g = Generators.k_tree ~seed:9 30 3 in
  check_int "k-tree degeneracy" 3 (Heuristic.degeneracy g);
  check_bool "upper >= lower" true (Heuristic.treewidth_upper g >= Heuristic.degeneracy g)

let prop_minfill_valid =
  QCheck.Test.make ~name:"min-fill decompositions are valid" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 5 35))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.15 in
      let dec = Heuristic.min_fill g in
      Decomposition.validate dec = Ok ())

let prop_minfill_width_sandwich =
  QCheck.Test.make ~name:"degeneracy <= min-fill width" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 5 30))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.2 in
      Heuristic.degeneracy g <= Decomposition.width (Heuristic.min_fill g))

(* ------------------------------------------------------------------ *)
(* Split *)

let path_tree_adj n =
  let adj = Array.make n [] in
  for v = 0 to n - 2 do
    adj.(v) <- (v + 1) :: adj.(v);
    adj.(v + 1) <- v :: adj.(v + 1)
  done;
  adj

let test_split_path () =
  let n = 100 in
  let subtrees =
    Split.run ~tree_adj:(path_tree_adj n) ~root:0 ~mu:(fun _ -> 1) ~lo:5 ~hi:20
  in
  (* cover all vertices *)
  let seen = Array.make n 0 in
  List.iter
    (fun st -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) st.Split.vertices)
    subtrees;
  Array.iteri (fun v c -> check_bool (Printf.sprintf "vertex %d covered" v) true (c >= 1)) seen;
  List.iter
    (fun st ->
      let w = List.length st.Split.vertices in
      check_bool "within bounds" true (w <= 20 && w >= 2))
    subtrees

let test_split_small_tree_untouched () =
  let subtrees = Split.run ~tree_adj:(path_tree_adj 5) ~root:0 ~mu:(fun _ -> 1) ~lo:2 ~hi:10 in
  check_int "single subtree" 1 (List.length subtrees)

let prop_split_covers_and_bounds =
  QCheck.Test.make ~name:"SPLIT covers the tree with bounded pieces" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 20 120))
    (fun (seed, n) ->
      (* random tree: attach each vertex to a random earlier one *)
      let rng = Random.State.make [| seed |] in
      let adj = Array.make n [] in
      for v = 1 to n - 1 do
        let p = Random.State.int rng v in
        adj.(v) <- p :: adj.(v);
        adj.(p) <- v :: adj.(p)
      done;
      let lo = max 1 (n / 20) in
      let hi = max (3 * lo) (n / 5) in
      let subtrees = Split.run ~tree_adj:adj ~root:0 ~mu:(fun _ -> 1) ~lo ~hi in
      let covered = Array.make n false in
      List.iter
        (fun st -> List.iter (fun v -> covered.(v) <- true) st.Split.vertices)
        subtrees;
      Array.for_all Fun.id covered
      && List.for_all (fun st -> List.length st.Split.vertices <= hi) subtrees)

let prop_split_pieces_share_only_roots =
  QCheck.Test.make ~name:"SPLIT pieces are disjoint except at roots" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 20 100))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed + 7 |] in
      let adj = Array.make n [] in
      for v = 1 to n - 1 do
        let p = Random.State.int rng v in
        adj.(v) <- p :: adj.(v);
        adj.(p) <- v :: adj.(p)
      done;
      let lo = max 1 (n / 15) in
      let hi = max (3 * lo) (n / 4) in
      let subtrees = Split.run ~tree_adj:adj ~root:0 ~mu:(fun _ -> 1) ~lo ~hi in
      let owner = Array.make n (-1) in
      let ok = ref true in
      List.iteri
        (fun i st ->
          List.iter
            (fun v ->
              if owner.(v) >= 0 then begin
                (* shared vertex must be the root of at least this piece *)
                if v <> st.Split.root then ok := false
              end
              else owner.(v) <- i)
            st.Split.vertices)
        subtrees;
      !ok)

(* ------------------------------------------------------------------ *)
(* Separator *)

let full_mask g = Array.make (Digraph.n g) true

let test_separator_balances_grid () =
  let g = Generators.grid 8 8 in
  let cost = Primitives.cost_zero () in
  let sep, _t =
    Separator.find_separator g ~mask:(full_mask g) ~x_mask:(full_mask g) ~cost
  in
  check_bool "balanced" true
    (Separator.is_balanced g ~mask:(full_mask g) ~x_mask:(full_mask g)
       ~profile:Separator.practical_profile sep);
  check_bool "not everything" true (List.length sep < 64);
  check_bool "cost accounted" true (Primitives.cost_rounds cost > 0)

let test_separator_ktree_size () =
  let g = Generators.k_tree ~seed:21 200 2 in
  let cost = Primitives.cost_zero () in
  let sep, t =
    Separator.find_separator ~seed:5 g ~mask:(full_mask g) ~x_mask:(full_mask g) ~cost
  in
  check_bool "balanced" true
    (Separator.is_balanced g ~mask:(full_mask g) ~x_mask:(full_mask g)
       ~profile:Separator.practical_profile sep);
  (* size O(t^2): generous constant *)
  check_bool "size O(t^2)" true (List.length sep <= 8 * t * t)

let prop_separator_always_balanced =
  QCheck.Test.make ~name:"find_separator output is balanced" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 3 5))
    (fun (seed, k) ->
      let g = Generators.partial_k_tree ~seed 80 k ~keep:0.5 in
      let cost = Primitives.cost_zero () in
      let sep, _ =
        Separator.find_separator ~seed g ~mask:(full_mask g) ~x_mask:(full_mask g) ~cost
      in
      Separator.is_balanced g ~mask:(full_mask g) ~x_mask:(full_mask g)
        ~profile:Separator.practical_profile sep)

(* ------------------------------------------------------------------ *)
(* Build *)

let test_build_path () =
  let g = Generators.path 32 in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  check_valid "path decomposition" report.Build.decomposition;
  (* SEP separators have Theta(t^2) size even on a path; width stays
     O(tau^2 log n), far below n *)
  check_bool "small width" true (Decomposition.width report.Build.decomposition <= 24)

let test_build_ktree () =
  let g = Generators.k_tree ~seed:33 120 3 in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  check_valid "k-tree decomposition" report.Build.decomposition;
  let w = Decomposition.width report.Build.decomposition in
  (* O(tau^2 log n)-ish; just require far below n *)
  check_bool (Printf.sprintf "width %d bounded" w) true (w <= 60);
  check_bool "rounds charged" true (Metrics.rounds m > 0)

let test_build_cycle () =
  let g = Generators.cycle 40 in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  check_valid "cycle" report.Build.decomposition;
  check_bool "levels logarithmic-ish" true (report.Build.levels <= 16)

let prop_build_valid =
  QCheck.Test.make ~name:"distributed decomposition is always valid" ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, k) ->
      let g = Generators.partial_k_tree ~seed 60 k ~keep:0.6 in
      let m = Metrics.create () in
      let report = Build.decompose ~seed g ~metrics:m in
      Decomposition.validate report.Build.decomposition = Ok ())


(* ------------------------------------------------------------------ *)
(* Exact treewidth *)

module Exact = Repro_treedec.Exact

let test_exact_families () =
  check_int "path" 1 (Exact.treewidth (Generators.path 8));
  check_int "cycle" 2 (Exact.treewidth (Generators.cycle 8));
  check_int "complete" 5 (Exact.treewidth (Generators.complete 6));
  check_int "grid 3x3" 3 (Exact.treewidth (Generators.grid 3 3));
  check_int "star" 1 (Exact.treewidth (Generators.star 8));
  check_int "3-tree" 3 (Exact.treewidth (Generators.k_tree ~seed:4 12 3))

let test_exact_order_is_witness () =
  let g = Generators.grid 3 4 in
  let tw, order = Exact.elimination_order g in
  check_int "grid 3x4 treewidth" 3 tw;
  let dec = Heuristic.of_order g order in
  check_valid "witness decomposition" dec;
  check_int "witness width" tw (Decomposition.width dec)

let test_exact_rejects_large () =
  check_bool "raises" true
    (try
       ignore (Exact.treewidth (Generators.path 19));
       false
     with Invalid_argument _ -> true)

let prop_exact_brackets_heuristics =
  QCheck.Test.make ~name:"degeneracy <= exact treewidth <= min-fill width" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 5 13))
    (fun (seed, n) ->
      let seed = abs seed and n = max 5 (min 13 n) in
      let g = Generators.gnp_connected ~seed n 0.3 in
      let tw = Exact.treewidth g in
      Heuristic.degeneracy g <= tw && tw <= Decomposition.width (Heuristic.min_fill g))

(* ------------------------------------------------------------------ *)
(* Golden outputs: bags, levels, max_t and metrics JSON are pinned
   byte-for-byte, so a speedup of the global-view recursion cannot move
   a single bag or charged round. The digest hashes a text rendering of
   the key-sorted (key, bag) list, bags in their stored order. *)

module Matching = Repro_core.Matching

let decomposition_digest dec =
  let buf = Buffer.create 4096 in
  let ints sep l = String.concat sep (List.map string_of_int l) in
  Decomposition.keys dec
  |> List.map (fun k -> (k, Decomposition.bag dec k))
  |> List.sort compare
  |> List.iter (fun (k, bag) ->
         Printf.bprintf buf "%s:%s\n" (ints "." k) (ints "," (Array.to_list bag)));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let weighted_ptk n =
  Generators.bidirect ~seed:n ~max_weight:9 (Generators.partial_k_tree ~seed:n n 3 ~keep:0.6)

let golden_cases =
  [
    ( "ptk n=256", (fun () -> Build.decompose ~seed:1 (weighted_ptk 256)),
      ("72b7057afff374c0d9260ce53d405281", 4, 2,
        {|{"rounds":1618,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"treedec/level":1010,"treedec/ccd":608}}|}) );
    ( "ptk n=1024", (fun () -> Build.decompose ~seed:1 (weighted_ptk 1024)),
      ("afc1f98a34cca3c3ad61d0cf543e92d3", 5, 2,
        {|{"rounds":5541,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"treedec/ccd":2920,"treedec/level":2621}}|}) );
    ( "wheel n=200", (fun () -> Build.decompose (Generators.wheel 200)),
      ("5cbca0f19647a71dd8a41549f90ea096", 5, 2,
        {|{"rounds":2030,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"treedec/ccd":1312,"treedec/level":718}}|}) );
    ( "grid 8x8", (fun () -> Build.decompose (Generators.grid 8 8)),
      ("8d3dfb90e624195e67dbd007eb1a2502", 3, 2,
        {|{"rounds":1279,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"treedec/level":1075,"treedec/ccd":204}}|}) );
    ( "paper profile ptk n=1024",
      (fun () ->
        Build.decompose ~profile:Separator.paper_profile ~seed:3
          (Generators.partial_k_tree ~seed:5 1024 2 ~keep:0.5)),
      ("b6a07490cfb81be4aaa6411ce4051440", 2, 2,
        {|{"rounds":1340,"messages":0,"words":0,"delivered":0,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"treedec/level":1140,"treedec/ccd":200}}|}) );
  ]

let golden_decompose build (digest, levels, max_t, json) () =
  let m = Metrics.create () in
  let r = build () ~metrics:m in
  Alcotest.(check string) "bag digest" digest (decomposition_digest r.Build.decomposition);
  check_int "levels" levels r.Build.levels;
  check_int "max_t" max_t r.Build.max_t;
  Alcotest.(check string) "metrics json" json (Metrics.to_json m)

let test_golden_matching () =
  let g = Generators.subdivide (Generators.k_tree ~seed:7 48 2) in
  let m = Metrics.create () in
  let r = Matching.run ~seed:2 g ~metrics:m in
  check_int "matching size" 48 r.Matching.size;
  Alcotest.(check string) "metrics json"
    {|{"rounds":59630,"messages":372,"words":372,"delivered":372,"dropped":0,"duplicated":0,"retransmissions":0,"corrupted":0,"rejected":0,"suspicions":0,"link_failures":0,"checkpoints":0,"checkpoint_words":0,"recoveries":0,"resync_rounds":0,"pulses":0,"safe_messages":0,"straggles":0,"virtual_time":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"labels":{"matching/augment":56344,"matching/sep":1599,"treedec/level":956,"treedec/ccd":624,"matching/leaf":96,"bfs-tree":11}}|}
    (Metrics.to_json m)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_minfill_valid;
        prop_minfill_width_sandwich;
        prop_split_covers_and_bounds;
        prop_split_pieces_share_only_roots;
        prop_separator_always_balanced;
        prop_build_valid;
        prop_exact_brackets_heuristics;
      ]
  in
  Alcotest.run "repro_treedec"
    [
      ( "decomposition",
        [
          Alcotest.test_case "create/accessors" `Quick test_decomposition_create_and_accessors;
          Alcotest.test_case "rejects key gap" `Quick test_decomposition_rejects_gap;
          Alcotest.test_case "detects uncovered vertex" `Quick
            test_decomposition_detects_uncovered_vertex;
          Alcotest.test_case "detects uncovered edge" `Quick
            test_decomposition_detects_uncovered_edge;
          Alcotest.test_case "detects disconnected bags" `Quick
            test_decomposition_detects_disconnected_bags;
          Alcotest.test_case "canonical and b_up" `Quick test_canonical_and_b_up;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "min-fill on k-trees" `Quick test_minfill_ktree_exact;
          Alcotest.test_case "cycle" `Quick test_minfill_cycle;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy_bounds;
        ] );
      ( "split",
        [
          Alcotest.test_case "path" `Quick test_split_path;
          Alcotest.test_case "small tree" `Quick test_split_small_tree_untouched;
        ] );
      ( "separator",
        [
          Alcotest.test_case "grid" `Quick test_separator_balances_grid;
          Alcotest.test_case "k-tree size" `Quick test_separator_ktree_size;
        ] );
      ( "build",
        [
          Alcotest.test_case "path" `Quick test_build_path;
          Alcotest.test_case "k-tree" `Quick test_build_ktree;
          Alcotest.test_case "cycle" `Quick test_build_cycle;
        ] );
      ( "exact treewidth",
        [
          Alcotest.test_case "families" `Quick test_exact_families;
          Alcotest.test_case "witness order" `Quick test_exact_order_is_witness;
          Alcotest.test_case "size cap" `Quick test_exact_rejects_large;
        ] );
      ( "golden",
        List.map
          (fun (name, build, expected) ->
            Alcotest.test_case name `Quick (golden_decompose build expected))
          golden_cases
        @ [ Alcotest.test_case "matching subdivided 2-tree" `Quick test_golden_matching ] );
      ("properties", qsuite);
    ]
