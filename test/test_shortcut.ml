module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Part = Repro_shortcut.Part
module Pa = Repro_shortcut.Pa
module Mvc = Repro_shortcut.Mvc
module Primitives = Repro_shortcut.Primitives
module Separator = Repro_treedec.Separator

(* audit every CONGEST engine run in this suite: accounting drift raises *)
let () = Repro_congest.Engine.audit_enabled := true

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Part *)

let test_part_of_labels () =
  let g = Generators.path 6 in
  let parts = Part.of_labels g [| 0; 0; -1; 1; 1; 1 |] in
  check_int "two parts" 2 (Part.count parts);
  check_bool "disjoint" true (Part.is_vertex_disjoint parts)

let test_part_rejects_disconnected () =
  let g = Generators.path 6 in
  check_bool "raises" true
    (try
       ignore (Part.make g [| [| 0; 5 |] |]);
       false
     with Invalid_argument _ -> true)

let test_part_near_disjoint () =
  (* star: center 0 shared by two parts, each part otherwise private *)
  let g = Generators.path 5 in
  (* parts {0,1,2} and {2,3,4} share vertex 2 *)
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 2; 3; 4 |] |] in
  check_bool "not vertex disjoint" false (Part.is_vertex_disjoint parts);
  check_bool "near disjoint" true (Part.is_near_disjoint parts)

let test_part_not_near_disjoint () =
  let g = Generators.path 4 in
  (* parts {0,1,2} and {1,2,3}: edge (1,2) has both endpoints shared *)
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 1; 2; 3 |] |] in
  check_bool "violates condition 1" false (Part.is_near_disjoint parts)

(* ------------------------------------------------------------------ *)
(* PA *)

let sum_aggregate g members =
  let m = Metrics.create () in
  let parts = Part.make g members in
  let results, stats =
    Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m ~label:"pa"
  in
  (results, stats, m)

let test_pa_sum_path () =
  let g = Generators.path 8 in
  let results, _, _ = sum_aggregate g [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7 |] |] in
  Alcotest.(check (array int)) "sums" [| 6; 22 |] results

let test_pa_single_vertex_parts () =
  let g = Generators.path 4 in
  let results, _, _ = sum_aggregate g [| [| 0 |]; [| 2 |]; [| 3 |] |] in
  Alcotest.(check (array int)) "sums" [| 0; 2; 3 |] results

let test_pa_min_aggregate () =
  let g = Generators.grid 4 4 in
  let m = Metrics.create () in
  let parts = Part.make g [| Array.init 16 Fun.id |] in
  let results, _ =
    Pa.aggregate parts ~op:min
      ~value:(fun ~part:_ ~vertex -> 100 - vertex)
      ~metrics:m ~label:"pa"
  in
  check_int "min over all" 85 results.(0)

let test_pa_stats_measured () =
  let g = Generators.path 9 in
  let _, stats, m = sum_aggregate g [| [| 0; 1; 2 |]; [| 3; 4; 5 |]; [| 6; 7; 8 |] |] in
  check_int "depth of path tree" 8 stats.Pa.depth;
  check_bool "rounds were charged" true (Metrics.rounds m > 0);
  check_bool "congestion at least 1" true (stats.Pa.max_load >= 1);
  (* Steiner-trimmed aggregation: each part meets within its own span, so
     the up phase is bounded by the largest part span, not the depth *)
  check_bool "up rounds local" true (stats.Pa.rounds_up <= 4);
  check_bool "down rounds local" true (stats.Pa.rounds_down <= 4)

let prop_pa_matches_direct_fold =
  QCheck.Test.make ~name:"PA aggregate = direct fold" ~count:40
    QCheck.(pair (int_range 0 500) (int_range 8 40))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.1 in
      (* parts = components after removing ~ n/4 vertices *)
      let rng = Random.State.make [| seed |] in
      let mask = Array.init n (fun _ -> Random.State.float rng 1.0 > 0.25) in
      let labels, count = Traversal.components_mask g mask in
      count = 0
      ||
      let parts = Part.of_labels g labels in
      let m = Metrics.create () in
      let results, _ =
        Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m
          ~label:"pa"
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun p vs -> results.(p) = Array.fold_left ( + ) 0 vs)
           parts.Part.members))

(* ------------------------------------------------------------------ *)
(* MVC *)

let full_mask g = Array.make (Digraph.n g) true

let test_mvc_path_cut () =
  let g = Generators.path 5 in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:3 with
  | Some cut -> check_int "single cut vertex" 1 (List.length cut)
  | None -> Alcotest.fail "expected a cut"

let test_mvc_respects_limit () =
  (* source 0 and sink 4 joined through the 3 middle vertices 1,2,3 *)
  let g =
    Digraph.create ~directed:false 5
      [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (1, 4, 1); (2, 4, 1); (3, 4, 1) ]
  in
  check_bool "limit 2 fails" true
    (Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:2 = None);
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:3 with
  | Some cut -> Alcotest.(check (list int)) "cut of 3" [ 1; 2; 3 ] (List.sort compare cut)
  | None -> Alcotest.fail "expected a cut"

let test_mvc_adjacent_is_infinite () =
  let g = Generators.path 3 in
  check_bool "adjacent source/sink" true
    (Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 1 ] ~limit:10 = None)

let test_mvc_disconnected_empty_cut () =
  let g = Digraph.create ~directed:false 4 [ (0, 1, 1); (2, 3, 1) ] in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 3 ] ~limit:5 with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected empty cut"

let test_mvc_cut_separates () =
  let g = Generators.grid 4 4 in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 15 ] ~limit:8 with
  | None -> Alcotest.fail "expected a cut"
  | Some cut ->
      let mask = full_mask g in
      List.iter (fun v -> mask.(v) <- false) cut;
      let labels, _ = Traversal.components_mask g mask in
      check_bool "separated" true (labels.(0) <> labels.(15))

let prop_mvc_cut_separates_and_is_minimal =
  QCheck.Test.make ~name:"MVC cut separates sources from sinks" ~count:40
    QCheck.(pair (int_range 0 500) (int_range 8 25))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.15 in
      let s = seed mod n and t = (seed + (n / 2)) mod n in
      if s = t then true
      else
        match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ s ] ~sinks:[ t ] ~limit:n with
        | None -> true (* adjacent *)
        | Some cut ->
            let mask = full_mask g in
            List.iter (fun v -> mask.(v) <- false) cut;
            let labels, _ = Traversal.components_mask g mask in
            labels.(s) <> labels.(t))

(* ------------------------------------------------------------------ *)
(* Primitives *)

let test_ceil_log2 () =
  check_int "1" 1 (Primitives.ceil_log2 1);
  check_int "2" 1 (Primitives.ceil_log2 2);
  check_int "3" 2 (Primitives.ceil_log2 3);
  check_int "1024" 10 (Primitives.ceil_log2 1024);
  check_int "1025" 11 (Primitives.ceil_log2 1025)

let test_schedule_combines () =
  check_int "dilation max + congestion sum" 25
    (Primitives.schedule [ (10, 3); (7, 5); (4, 7) ])

let test_elect_per_part () =
  let g = Generators.path 6 in
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  let m = Metrics.create () in
  let leaders = Primitives.elect parts ~candidate:(fun v -> v mod 2 = 1) ~metrics:m ~label:"sle" in
  Alcotest.(check (array int)) "smallest odd ids" [| 1; 3 |] leaders

let test_components_charges () =
  let g = Generators.grid 3 3 in
  let mask = Array.make 9 true in
  mask.(4) <- false;
  let m = Metrics.create () in
  let _, count = Primitives.components g ~mask ~metrics:m ~label:"ccd" in
  check_int "still connected around center" 1 count;
  check_bool "charged rounds" true (Metrics.rounds m > 0)


(* ------------------------------------------------------------------ *)
(* Part-sized bookkeeping = the n-sized originals *)

(* The n-sized implementations of Part.make's connectivity check and of
   Pa.loads (delegation, Steiner marks, per-vertex loads, intra-part
   depth), kept as oracles for the part-local rewrites. Only what loads
   reads is kept: the delegation map and the marked-children table are
   dropped. *)
module Oracle = struct
  let connected_within g vs =
    match Array.length vs with
    | 0 -> false
    | 1 -> true
    | _ ->
        let mask = Array.make (Digraph.n g) false in
        Array.iter (fun v -> mask.(v) <- true) vs;
        let labels, _ = Traversal.components_mask g mask in
        let c0 = labels.(vs.(0)) in
        Array.for_all (fun v -> labels.(v) = c0) vs

  let make_ok g members =
    Array.for_all
      (fun vs ->
        Array.for_all (fun v -> v >= 0 && v < Digraph.n g) vs && connected_within g vs)
      members

  let steiner_marks tree (parts : Part.t) =
    let root = tree.Bfs_tree.root in
    let marked = Hashtbl.create 256 in
    let member = Hashtbl.create 256 in
    Array.iteri
      (fun p members ->
        Array.iter
          (fun u ->
            Hashtbl.replace member (u, p) ();
            let v = ref u in
            let continue = ref true in
            while !continue && !v <> root do
              if Hashtbl.mem marked (!v, p) then continue := false
              else begin
                Hashtbl.add marked (!v, p) ();
                v := tree.Bfs_tree.parent.(!v)
              end
            done)
          members)
      parts.Part.members;
    let marked_children = Hashtbl.create 256 in
    Hashtbl.iter
      (fun (v, p) () ->
        let parent = tree.Bfs_tree.parent.(v) in
        if parent >= 0 && v <> root then
          match Hashtbl.find_opt marked_children (parent, p) with
          | Some l -> l := v :: !l
          | None -> Hashtbl.add marked_children (parent, p) (ref [ v ]))
      marked;
    let children_of v p =
      match Hashtbl.find_opt marked_children (v, p) with Some l -> !l | None -> []
    in
    let apex = Array.make (Part.count parts) root in
    Array.iteri
      (fun p members ->
        if Array.length members = 1 && members.(0) = root then apex.(p) <- root
        else begin
          let rec descend v =
            match children_of v p with
            | [ c ] when not (Hashtbl.mem member (v, p)) ->
                if v <> root then begin
                  Hashtbl.remove marked (v, p);
                  Hashtbl.remove marked_children (v, p)
                end;
                descend c
            | _ -> apex.(p) <- v
          in
          match children_of root p with
          | [ c ] when not (Hashtbl.mem member (root, p)) -> descend c
          | [] -> apex.(p) <- (if Array.length members > 0 then members.(0) else root)
          | _ -> apex.(p) <- root
        end)
      parts.Part.members;
    Array.iteri (fun p a -> Hashtbl.remove marked (a, p)) apex;
    marked

  let loads_of marked n =
    let per_vertex = Array.make n 0 in
    Hashtbl.iter (fun (v, _) () -> per_vertex.(v) <- per_vertex.(v) + 1) marked;
    Array.fold_left max 0 per_vertex

  let delegate_shared (parts : Part.t) =
    let g = parts.Part.graph in
    let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
    let belongs = Part.parts_of parts in
    let shared v = List.length belongs.(v) > 1 in
    if not (Array.exists shared (Array.init (Digraph.n g) Fun.id)) then parts
    else begin
      let reduced =
        Array.map
          (fun members ->
            let private_set = Hashtbl.create 16 in
            Array.iter
              (fun v -> if not (shared v) then Hashtbl.replace private_set v ())
              members;
            let kept = ref [] in
            Array.iter
              (fun v ->
                if not (shared v) then kept := v :: !kept
                else if
                  not
                    (Array.exists
                       (fun u -> Hashtbl.mem private_set u)
                       (Digraph.neighbors skeleton v))
                then kept := v :: !kept)
              members;
            Array.of_list (List.rev !kept))
          parts.Part.members
      in
      let reduced =
        Array.mapi
          (fun p m -> if Array.length m = 0 then parts.Part.members.(p) else m)
          reduced
      in
      { parts with Part.members = reduced }
    end

  let intra_part_depth (parts : Part.t) =
    let g = parts.Part.graph in
    let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
    let dist = Array.make (Digraph.n skeleton) (-1) in
    let worst = ref 0 in
    let ok = ref true in
    Array.iter
      (fun members ->
        if !ok && Array.length members > 0 then begin
          let inside = Hashtbl.create (Array.length members) in
          Array.iter (fun v -> Hashtbl.replace inside v ()) members;
          let queue = Queue.create () in
          dist.(members.(0)) <- 0;
          Queue.add members.(0) queue;
          let seen = ref 1 in
          let local_depth = ref 0 in
          while not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            if dist.(v) > !local_depth then local_depth := dist.(v);
            Array.iter
              (fun u ->
                if Hashtbl.mem inside u && dist.(u) < 0 then begin
                  dist.(u) <- dist.(v) + 1;
                  incr seen;
                  Queue.add u queue
                end)
              (Digraph.neighbors skeleton v)
          done;
          Array.iter (fun v -> dist.(v) <- -1) members;
          if !seen < Array.length members then ok := false
          else if !local_depth > !worst then worst := !local_depth
        end)
      parts.Part.members;
    if !ok then Some !worst else None

  let loads tree parts =
    let parts = delegate_shared parts in
    let steiner_load = loads_of (steiner_marks tree parts) (Array.length tree.Bfs_tree.parent) in
    let steiner = (tree.Bfs_tree.depth, steiner_load) in
    let depth, max_load =
      match intra_part_depth parts with
      | Some d when d + 1 < fst steiner + snd steiner -> (d, 1)
      | _ -> steiner
    in
    { Pa.depth; max_load; rounds_up = 0; rounds_down = 0 }
end

(* A random graph (directed half the time) with a random collection:
   BFS balls that may overlap (shared vertices, near-disjoint when they
   only touch), arbitrary vertex samples (usually disconnected, repeats
   allowed) and the occasional empty part. *)
let random_collection (seed, n) =
  let rng = Random.State.make [| seed; n; 0xc011 |] in
  let g = Generators.gnp_connected ~seed n (2.5 /. float n) in
  let g = if seed mod 2 = 0 then Generators.bidirect ~seed ~max_weight:5 g else g in
  let ball () =
    let size = 1 + Random.State.int rng (max 1 (n / 3)) in
    let seen = Hashtbl.create size and out = ref [] in
    let queue = Queue.create () in
    let grab v =
      if (not (Hashtbl.mem seen v)) && Hashtbl.length seen < size then begin
        Hashtbl.add seen v ();
        out := v :: !out;
        Queue.add v queue
      end
    in
    grab (Random.State.int rng n);
    while not (Queue.is_empty queue) do
      Array.iter grab (Digraph.neighbors g (Queue.pop queue))
    done;
    Array.of_list (List.rev !out)
  in
  let sample () = Array.init (1 + Random.State.int rng 4) (fun _ -> Random.State.int rng n) in
  let part () =
    match Random.State.int rng 10 with 0 -> [||] | 1 | 2 -> sample () | _ -> ball ()
  in
  (g, Array.init (1 + Random.State.int rng 6) (fun _ -> part ()))

let collection_gen = QCheck.(pair (int_range 0 10_000) (int_range 2 40))

let prop_part_make_matches_oracle =
  QCheck.Test.make ~name:"Part.make connectivity = n-sized oracle" ~count:300 collection_gen
    (fun input ->
      let g, members = random_collection input in
      let accepted =
        match Part.make g members with _ -> true | exception Invalid_argument _ -> false
      in
      accepted = Oracle.make_ok g members)

let prop_pa_loads_matches_oracle =
  QCheck.Test.make ~name:"Pa.loads = n-sized oracle" ~count:300 collection_gen (fun input ->
      let g, members = random_collection input in
      let parts = Part.make_unchecked g members in
      let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
      let tree = Bfs_tree.build skeleton ~root:0 ~metrics:(Metrics.create ()) in
      Pa.loads tree parts = Oracle.loads tree parts)

let prop_find_separator_tree_invariant =
  QCheck.Test.make ~name:"find_separator ~tree = find_separator" ~count:20
    QCheck.(pair (int_range 0 1000) (int_range 30 120))
    (fun (seed, n) ->
      let g = Generators.partial_k_tree ~seed n 3 ~keep:0.5 in
      let run ?tree () =
        let cost = Primitives.cost_zero () in
        let mask = full_mask g in
        let result = Separator.find_separator ?tree ~seed g ~mask ~x_mask:mask ~cost in
        (result, cost)
      in
      run () = run ~tree:(Primitives.charge_tree g) ())

(* ------------------------------------------------------------------ *)
(* MST *)

module Mst = Repro_shortcut.Mst

let test_mst_matches_kruskal () =
  let g = Generators.random_weights ~seed:4 ~max_weight:20 (Generators.k_tree ~seed:4 40 3) in
  let m = Metrics.create () in
  let r = Mst.run g ~metrics:m in
  let k = Mst.kruskal g in
  Alcotest.(check (list int)) "same edges" k.Mst.edges r.Mst.edges;
  check_int "same weight" k.Mst.weight r.Mst.weight;
  check_int "spanning" (Digraph.n g - 1) (List.length r.Mst.edges);
  check_bool "logarithmic phases" true (r.Mst.phases <= 8);
  check_bool "rounds charged" true (Metrics.rounds m > 0)

let test_mst_on_tree_is_identity () =
  let g = Generators.random_weights ~seed:5 ~max_weight:9 (Generators.binary_tree 4) in
  let m = Metrics.create () in
  let r = Mst.run g ~metrics:m in
  check_int "all edges kept" (Digraph.m g) (List.length r.Mst.edges)

let test_mst_rejects_disconnected () =
  let g = Digraph.create ~directed:false 4 [ (0, 1, 1); (2, 3, 1) ] in
  let m = Metrics.create () in
  check_bool "raises" true
    (try
       ignore (Mst.run g ~metrics:m);
       false
     with Invalid_argument _ -> true)

let prop_mst_matches_kruskal =
  QCheck.Test.make ~name:"Boruvka-over-PA = Kruskal" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 6 40))
    (fun (seed, n) ->
      let seed = abs seed and n = max 6 (min 40 n) in
      let g =
        Generators.random_weights ~seed ~max_weight:15 (Generators.gnp_connected ~seed n 0.15)
      in
      let m = Metrics.create () in
      (Mst.run g ~metrics:m).Mst.edges = (Mst.kruskal g).Mst.edges)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_pa_matches_direct_fold;
        prop_mvc_cut_separates_and_is_minimal;
        prop_mst_matches_kruskal;
        prop_part_make_matches_oracle;
        prop_pa_loads_matches_oracle;
        prop_find_separator_tree_invariant;
      ]
  in
  Alcotest.run "repro_shortcut"
    [
      ( "part",
        [
          Alcotest.test_case "of_labels" `Quick test_part_of_labels;
          Alcotest.test_case "rejects disconnected" `Quick test_part_rejects_disconnected;
          Alcotest.test_case "near disjoint" `Quick test_part_near_disjoint;
          Alcotest.test_case "not near disjoint" `Quick test_part_not_near_disjoint;
        ] );
      ( "pa",
        [
          Alcotest.test_case "sum on path" `Quick test_pa_sum_path;
          Alcotest.test_case "singleton parts" `Quick test_pa_single_vertex_parts;
          Alcotest.test_case "min aggregate" `Quick test_pa_min_aggregate;
          Alcotest.test_case "measured stats" `Quick test_pa_stats_measured;
        ] );
      ( "mvc",
        [
          Alcotest.test_case "path" `Quick test_mvc_path_cut;
          Alcotest.test_case "limit" `Quick test_mvc_respects_limit;
          Alcotest.test_case "adjacent infinite" `Quick test_mvc_adjacent_is_infinite;
          Alcotest.test_case "disconnected" `Quick test_mvc_disconnected_empty_cut;
          Alcotest.test_case "cut separates" `Quick test_mvc_cut_separates;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "schedule" `Quick test_schedule_combines;
          Alcotest.test_case "elect" `Quick test_elect_per_part;
          Alcotest.test_case "components" `Quick test_components_charges;
        ] );
      ( "mst",
        [
          Alcotest.test_case "matches kruskal" `Quick test_mst_matches_kruskal;
          Alcotest.test_case "tree identity" `Quick test_mst_on_tree_is_identity;
          Alcotest.test_case "disconnected rejected" `Quick test_mst_rejects_disconnected;
        ] );
      ("properties", qsuite);
    ]
