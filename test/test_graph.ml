module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Bipartite = Repro_graph.Bipartite
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref
module Pqueue = Repro_graph.Pqueue
module Union_find = Repro_graph.Union_find

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pqueue / Union_find *)

let test_pqueue_sorts () =
  let q = Pqueue.create () in
  let input = [ 5; 3; 9; 1; 7; 3; 0; 8 ] in
  List.iter (fun p -> Pqueue.push q p p) input;
  let out = ref [] in
  while not (Pqueue.is_empty q) do
    out := fst (Pqueue.pop_min q) :: !out
  done;
  Alcotest.(check (list int)) "sorted" (List.sort compare input) (List.rev !out)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  check_bool "empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (Pqueue.pop_min q))

let prop_pqueue =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order" ~count:200
    QCheck.(list small_int)
    (fun input ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) input;
      let prev = ref min_int and ok = ref true in
      while not (Pqueue.is_empty q) do
        let p, _ = Pqueue.pop_min q in
        if p < !prev then ok := false;
        prev := p
      done;
      !ok)

let test_union_find () =
  let uf = Union_find.create 6 in
  check_int "six sets" 6 (Union_find.count uf);
  check_bool "fresh union" true (Union_find.union uf 0 1);
  check_bool "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  check_bool "same component" true (Union_find.same uf 0 2);
  check_bool "separate" false (Union_find.same uf 0 5);
  check_int "three sets" 3 (Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_digraph_basic () =
  let g = Digraph.create ~directed:true 3 [ (0, 1, 5); (1, 2, 7); (2, 0, 1) ] in
  check_int "n" 3 (Digraph.n g);
  check_int "m" 3 (Digraph.m g);
  check_int "out degree" 1 (Array.length (Digraph.out_edges g 0));
  check_int "in degree" 1 (Array.length (Digraph.in_edges g 0));
  check_int "total weight" 13 (Digraph.total_weight g)

let test_digraph_undirected_adjacency () =
  let g = Digraph.create ~directed:false 3 [ (0, 1, 1); (1, 2, 1) ] in
  check_int "degree of middle" 2 (Array.length (Digraph.out_edges g 1));
  let e = Digraph.edge g 0 in
  check_int "other endpoint from 1" 0 (Digraph.dst_of g e 1);
  check_int "other endpoint from 0" 1 (Digraph.dst_of g e 0)

let test_digraph_skeleton_simplifies () =
  let g =
    Digraph.create ~directed:true 3 [ (0, 1, 5); (1, 0, 2); (0, 1, 9); (2, 2, 4); (1, 2, 1) ]
  in
  let sk = Digraph.skeleton g in
  check_bool "skeleton undirected" false (Digraph.directed sk);
  check_int "skeleton edges" 2 (Digraph.m sk);
  check_int "multiplicity" 3 (Digraph.max_multiplicity g)

let test_digraph_induced () =
  let g = Generators.cycle 5 in
  let sub, old_of_new, new_of_old = Digraph.induced g [ 0; 1; 2 ] in
  check_int "induced n" 3 (Digraph.n sub);
  check_int "induced m" 2 (Digraph.m sub);
  check_int "old of new 0" 0 old_of_new.(0);
  check_int "missing vertex" (-1) new_of_old.(4)

let test_digraph_rejects_bad_input () =
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Digraph: vertex 3 out of range [0,3)")
    (fun () -> ignore (Digraph.create ~directed:true 3 [ (0, 3, 1) ]));
  Alcotest.check_raises "negative weight" (Invalid_argument "Digraph: negative weight")
    (fun () -> ignore (Digraph.create ~directed:true 3 [ (0, 1, -1) ]))

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs_path () =
  let g = Generators.path 5 in
  let d = Traversal.bfs_undirected g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d

let test_bfs_directed_respects_orientation () =
  let g = Digraph.create ~directed:true 3 [ (0, 1, 1); (1, 2, 1) ] in
  let d = Traversal.bfs g 2 in
  check_int "cannot go backward" Digraph.inf d.(0);
  let d' = Traversal.bfs_undirected g 2 in
  check_int "skeleton reaches" 2 d'.(0)

let test_components () =
  let g = Digraph.create ~directed:false 5 [ (0, 1, 1); (2, 3, 1) ] in
  let labels, count = Traversal.components g in
  check_int "three components" 3 count;
  check_bool "0 and 1 together" true (labels.(0) = labels.(1));
  check_bool "1 and 2 apart" true (labels.(1) <> labels.(2))

let test_components_mask () =
  let g = Generators.path 5 in
  let mask = [| true; true; false; true; true |] in
  let labels, count = Traversal.components_mask g mask in
  check_int "split by removal" 2 count;
  check_int "unmasked labeled -1" (-1) labels.(2)

let test_diameter () =
  check_int "path" 4 (Traversal.diameter (Generators.path 5));
  check_int "cycle" 3 (Traversal.diameter (Generators.cycle 6));
  check_int "complete" 1 (Traversal.diameter (Generators.complete 5));
  check_int "apex family" 2
    (Traversal.diameter (Generators.apex_cliques ~cliques:4 ~size:3))

(* ------------------------------------------------------------------ *)
(* Shortest paths *)

let test_dijkstra_weighted () =
  let g =
    Digraph.create ~directed:true 4 [ (0, 1, 1); (1, 2, 1); (0, 2, 5); (2, 3, 1) ]
  in
  let d = Shortest_path.dijkstra g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |] d

let test_dijkstra_to_matches_reverse () =
  let g = Generators.bidirect ~seed:7 ~max_weight:9 (Generators.k_tree ~seed:1 30 3) in
  let to3 = Shortest_path.dijkstra_to g 3 in
  for v = 0 to Digraph.n g - 1 do
    check_int (Printf.sprintf "d(%d,3)" v) (Shortest_path.dijkstra g v).(3) to3.(v)
  done

let test_path_of_tree () =
  let g = Digraph.create ~directed:true 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 3, 10) ] in
  let _, pred = Shortest_path.dijkstra_tree g 0 in
  let path = Shortest_path.path_of_tree g pred 3 in
  check_int "path length" 3 (List.length path)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality over edges" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 8 40))
    (fun (seed, n) ->
      let g = Generators.bidirect ~seed ~max_weight:10 (Generators.k_tree ~seed n 2) in
      let d = Shortest_path.dijkstra g 0 in
      Array.for_all
        (fun e ->
          d.(e.Digraph.dst) <= d.(e.Digraph.src) + e.Digraph.weight)
        (Digraph.edges g))

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_ktree_properties () =
  let g = Generators.k_tree ~seed:42 50 3 in
  check_int "n" 50 (Digraph.n g);
  (* a k-tree on n vertices has k(k+1)/2 + (n-k-1)k edges *)
  check_int "m" ((3 * 4 / 2) + ((50 - 4) * 3)) (Digraph.m g);
  check_bool "connected" true (Traversal.is_connected g)

let test_partial_ktree_connected () =
  for seed = 0 to 9 do
    let g = Generators.partial_k_tree ~seed 40 3 ~keep:0.3 in
    check_bool "connected" true (Traversal.is_connected g)
  done

let test_grid_bipartite () =
  check_bool "grid bipartite" true (Bipartite.is_bipartite (Generators.grid 4 5));
  check_bool "odd cycle not bipartite" false (Bipartite.is_bipartite (Generators.cycle 5));
  check_bool "even cycle bipartite" true (Bipartite.is_bipartite (Generators.cycle 6))

let test_subdivide_bipartite () =
  let g = Generators.k_tree ~seed:3 20 3 in
  let sub = Generators.subdivide g in
  check_int "n grows by m" (Digraph.n g + Digraph.m g) (Digraph.n sub);
  check_bool "subdivision bipartite" true (Bipartite.is_bipartite sub)

let test_gnp_connected () =
  for seed = 0 to 4 do
    check_bool "connected" true
      (Traversal.is_connected (Generators.gnp_connected ~seed 30 0.05))
  done

let test_bidirect_preserves_skeleton () =
  let g = Generators.cycle 8 in
  let d = Generators.bidirect ~seed:1 ~max_weight:5 g in
  check_bool "directed" true (Digraph.directed d);
  check_int "doubled edges" (2 * Digraph.m g) (Digraph.m d);
  check_int "same skeleton size" (Digraph.m g) (Digraph.m (Digraph.skeleton d))


let test_caterpillar () =
  let g = Generators.caterpillar ~spine:5 ~legs:2 in
  check_int "n" 15 (Digraph.n g);
  check_bool "connected" true (Traversal.is_connected g);
  check_int "tree edge count" 14 (Digraph.m g)

let test_series_parallel_treewidth () =
  for seed = 0 to 4 do
    let g = Generators.series_parallel ~seed 14 in
    check_bool "connected" true (Traversal.is_connected g);
    check_bool "treewidth <= 2" true (Repro_treedec.Exact.treewidth g <= 2)
  done

(* ------------------------------------------------------------------ *)
(* Matching reference *)

let test_hopcroft_karp_path () =
  let g = Generators.path 4 in
  let mate = Matching_ref.hopcroft_karp g in
  check_bool "valid" true (Matching_ref.is_matching g mate);
  check_int "size" 2 (Matching_ref.size mate)

let test_hopcroft_karp_grid () =
  let g = Generators.grid 4 4 in
  let mate = Matching_ref.hopcroft_karp g in
  check_bool "valid" true (Matching_ref.is_matching g mate);
  check_int "perfect matching" 8 (Matching_ref.size mate)

let test_hopcroft_karp_star () =
  let g = Generators.star 6 in
  check_int "star matches once" 1 (Matching_ref.size (Matching_ref.hopcroft_karp g))

let test_hopcroft_karp_rejects_odd_cycle () =
  Alcotest.check_raises "not bipartite"
    (Invalid_argument "Matching_ref: graph is not bipartite") (fun () ->
      ignore (Matching_ref.hopcroft_karp (Generators.cycle 5)))

let prop_matching_at_least_greedy =
  QCheck.Test.make ~name:"maximum matching >= greedy matching" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 2 6))
    (fun (seed, k) ->
      let g = Generators.subdivide (Generators.k_tree ~seed 20 k) in
      let hk = Matching_ref.hopcroft_karp g in
      Matching_ref.is_matching g hk
      && Matching_ref.size hk >= Matching_ref.size (Matching_ref.greedy g))

(* ------------------------------------------------------------------ *)
(* Girth reference *)

let test_girth_cycle () =
  check_int "unweighted cycle" 6 (Girth_ref.girth (Generators.cycle 6));
  let weighted = Digraph.with_weights (Generators.cycle 5) (fun _ -> 3) in
  check_int "weighted cycle" 15 (Girth_ref.girth weighted)

let test_girth_tree_infinite () =
  check_int "tree has no cycle" Digraph.inf (Girth_ref.girth (Generators.binary_tree 3))

let test_girth_directed_two_cycle () =
  let g = Digraph.create ~directed:true 3 [ (0, 1, 2); (1, 0, 3); (1, 2, 1) ] in
  check_int "2-cycle" 5 (Girth_ref.girth g)

let test_girth_directed_no_cycle () =
  let g = Digraph.create ~directed:true 3 [ (0, 1, 1); (0, 2, 1); (1, 2, 1) ] in
  check_int "dag" Digraph.inf (Girth_ref.girth g)

let test_girth_parallel_edges () =
  let g = Digraph.create ~directed:false 2 [ (0, 1, 2); (0, 1, 5) ] in
  check_int "parallel pair forms cycle" 7 (Girth_ref.girth g)

let test_girth_grid () = check_int "grid girth" 4 (Girth_ref.girth (Generators.grid 3 4))


(* ------------------------------------------------------------------ *)
(* Io *)

let test_io_roundtrip () =
  let g =
    Digraph.create_labeled ~directed:true 4
      [ (0, 1, 5, 0); (1, 2, 7, 1); (2, 0, 1, 0); (3, 3, 2, 1) ]
  in
  let g' = Repro_graph.Io.of_string (Repro_graph.Io.to_string g) in
  check_int "n" (Digraph.n g) (Digraph.n g');
  check_int "m" (Digraph.m g) (Digraph.m g');
  check_bool "directed" true (Digraph.directed g');
  let e = Digraph.edge g' 1 in
  check_int "weight" 7 e.Digraph.weight;
  check_int "label" 1 e.Digraph.label

let test_io_undirected_roundtrip () =
  let g = Generators.random_weights ~seed:3 ~max_weight:9 (Generators.grid 3 3) in
  let g' = Repro_graph.Io.of_string (Repro_graph.Io.to_string g) in
  check_bool "same string" true (Repro_graph.Io.to_string g = Repro_graph.Io.to_string g')

let test_io_comments_and_blanks () =
  let text = "# a comment\ngraph 3 2\n\n0 1 4\n# another\n1 2 6\n" in
  let g = Repro_graph.Io.of_string text in
  check_int "m" 2 (Digraph.m g)

(* every malformed input raises Invalid_argument naming where it broke:
   a bad header count and an out-of-range vertex each at their own line *)
let test_io_rejects_malformed () =
  List.iter
    (fun (text, where) ->
      match Repro_graph.Io.of_string text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Invalid_argument msg ->
          let n = String.length where in
          let rec at i =
            i + n <= String.length msg && (String.sub msg i n = where || at (i + 1))
          in
          check_bool (Printf.sprintf "%S: %S names %S" text msg where) true (at 0))
    [
      ("", "empty input");
      ("triangle 3 1\n0 1 1", "line 1:");
      ("graph 3 2\n0 1 1", "line 1:");
      ("graph 2 1\n0 zebra 1", "line 2:");
      ("graph x 1\n0 1 1", "line 1:");
      ("graph 2 1\n0 5 1", "line 2:");
    ]

let prop_io_roundtrip =
  QCheck.Test.make ~name:"Io round-trips generated graphs" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 4 25))
    (fun (seed, n) ->
      let seed = abs seed and n = max 4 (min 25 n) in
      let g = Generators.bidirect ~seed ~max_weight:9 (Generators.gnp_connected ~seed n 0.2) in
      Repro_graph.Io.to_string (Repro_graph.Io.of_string (Repro_graph.Io.to_string g))
      = Repro_graph.Io.to_string g)


(* [Digraph.neighbors] as it was built on a hashtable, kept as the
   reference for the sort-and-dedupe version *)
let neighbors_ref g v =
  let seen = Hashtbl.create 8 in
  let add u = if u <> v && not (Hashtbl.mem seen u) then Hashtbl.add seen u () in
  let add_ends ei =
    let e = Digraph.edge g ei in
    add e.Digraph.src;
    add e.Digraph.dst
  in
  Array.iter add_ends (Digraph.out_edges g v);
  if Digraph.directed g then Array.iter add_ends (Digraph.in_edges g v);
  let out = Hashtbl.fold (fun u () acc -> u :: acc) seen [] in
  Array.of_list (List.sort compare out)

(* Endpoints drawn from a few vertices: self-loops, parallel and
   antiparallel edges are common, and so are isolated vertices. *)
let arbitrary_multigraph =
  QCheck.(triple bool (int_range 1 10) (list_of_size Gen.(0 -- 40) (pair small_nat small_nat)))

let prop_neighbors_match_hashtable =
  QCheck.Test.make ~name:"neighbors = hashtable reference on multigraphs" ~count:300
    arbitrary_multigraph
    (fun (directed, n, ends) ->
      let g = Digraph.create ~directed n (List.map (fun (a, b) -> (a mod n, b mod n, 1)) ends) in
      List.for_all (fun v -> Digraph.neighbors g v = neighbors_ref g v) (List.init n Fun.id))

(* [Digraph.skeleton] as it was built on a hashtable of pairs, kept as
   the reference for the counting-sort version *)
let skeleton_ref g =
  let seen = Hashtbl.create (Digraph.m g) in
  let pairs = ref [] in
  Array.iter
    (fun e ->
      let u = min e.Digraph.src e.Digraph.dst and v = max e.Digraph.src e.Digraph.dst in
      if u <> v && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.add seen (u, v) ();
        pairs := (u, v, 1) :: !pairs
      end)
    (Digraph.edges g);
  Digraph.create ~directed:false (Digraph.n g) (List.rev !pairs)

(* the same multigraphs, with weights and labels the skeleton must drop *)
let prop_skeleton_match_hashtable =
  QCheck.Test.make ~name:"skeleton = hashtable reference on multigraphs" ~count:300
    arbitrary_multigraph
    (fun (directed, n, ends) ->
      let g =
        Digraph.create_labeled ~directed n
          (List.map (fun (a, b) -> (a mod n, b mod n, a + b, a * b mod 3)) ends)
      in
      let s = Digraph.skeleton g and r = skeleton_ref g in
      let same_edge (e : Digraph.edge) (f : Digraph.edge) =
        e.id = f.id && e.src = f.src && e.dst = f.dst && e.weight = f.weight && e.label = f.label
      in
      Digraph.n s = Digraph.n r
      && (not (Digraph.directed s))
      && Digraph.m s = Digraph.m r
      && Array.for_all2 same_edge (Digraph.edges s) (Digraph.edges r)
      && List.for_all
           (fun v ->
             Digraph.out_edges s v = Digraph.out_edges r v
             && Digraph.in_edges s v = Digraph.in_edges r v)
           (List.init n Fun.id))


let test_io_to_dot () =
  let g = Digraph.create_labeled ~directed:true 2 [ (0, 1, 5, 2) ] in
  let dot = Repro_graph.Io.to_dot g in
  check_bool "digraph header" true (String.length dot > 0 && String.sub dot 0 9 = "digraph G");
  check_bool "edge rendered" true
    (let needle = "0 -> 1 [label=\"5:2\"];" in
     let rec contains i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)


let test_mask_helpers () =
  let mask = [| true; false; true; true; false |] in
  Alcotest.(check (list int)) "vertices" [ 0; 2; 3 ] (Repro_graph.Mask.vertices mask);
  check_int "size" 3 (Repro_graph.Mask.size mask);
  let mask' = Repro_graph.Mask.without mask [ 2 ] in
  check_int "without" 2 (Repro_graph.Mask.size mask');
  check_bool "original untouched" true mask.(2);
  let g = Generators.path 5 in
  check_int "edges inside" 1 (Repro_graph.Mask.edge_count g mask)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [
        prop_pqueue;
        prop_dijkstra_triangle;
        prop_matching_at_least_greedy;
        prop_io_roundtrip;
        prop_neighbors_match_hashtable;
        prop_skeleton_match_hashtable;
      ]
  in
  Alcotest.run "repro_graph"
    [
      ( "containers",
        [
          Alcotest.test_case "pqueue sorts" `Quick test_pqueue_sorts;
          Alcotest.test_case "pqueue empty" `Quick test_pqueue_empty;
          Alcotest.test_case "union find" `Quick test_union_find;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "undirected adjacency" `Quick test_digraph_undirected_adjacency;
          Alcotest.test_case "skeleton" `Quick test_digraph_skeleton_simplifies;
          Alcotest.test_case "induced" `Quick test_digraph_induced;
          Alcotest.test_case "input validation" `Quick test_digraph_rejects_bad_input;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs orientation" `Quick test_bfs_directed_respects_orientation;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "masked components" `Quick test_components_mask;
          Alcotest.test_case "diameter" `Quick test_diameter;
        ] );
      ( "shortest paths",
        [
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra_to" `Quick test_dijkstra_to_matches_reverse;
          Alcotest.test_case "path reconstruction" `Quick test_path_of_tree;
        ] );
      ( "generators",
        [
          Alcotest.test_case "k-tree" `Quick test_ktree_properties;
          Alcotest.test_case "partial k-tree connected" `Quick test_partial_ktree_connected;
          Alcotest.test_case "grid bipartite" `Quick test_grid_bipartite;
          Alcotest.test_case "subdivide bipartite" `Quick test_subdivide_bipartite;
          Alcotest.test_case "gnp connected" `Quick test_gnp_connected;
          Alcotest.test_case "bidirect" `Quick test_bidirect_preserves_skeleton;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "series parallel" `Quick test_series_parallel_treewidth;
        ] );
      ( "matching reference",
        [
          Alcotest.test_case "path" `Quick test_hopcroft_karp_path;
          Alcotest.test_case "grid" `Quick test_hopcroft_karp_grid;
          Alcotest.test_case "star" `Quick test_hopcroft_karp_star;
          Alcotest.test_case "odd cycle rejected" `Quick test_hopcroft_karp_rejects_odd_cycle;
        ] );
      ( "girth reference",
        [
          Alcotest.test_case "cycle" `Quick test_girth_cycle;
          Alcotest.test_case "tree" `Quick test_girth_tree_infinite;
          Alcotest.test_case "directed 2-cycle" `Quick test_girth_directed_two_cycle;
          Alcotest.test_case "dag" `Quick test_girth_directed_no_cycle;
          Alcotest.test_case "parallel edges" `Quick test_girth_parallel_edges;
          Alcotest.test_case "grid" `Quick test_girth_grid;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "undirected roundtrip" `Quick test_io_undirected_roundtrip;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "malformed" `Quick test_io_rejects_malformed;
          Alcotest.test_case "dot export" `Quick test_io_to_dot;
          Alcotest.test_case "mask helpers" `Quick test_mask_helpers;
        ] );
      ("properties", qsuite);
    ]
