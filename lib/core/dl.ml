module Digraph = Repro_graph.Digraph
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives
module Decomposition = Repro_treedec.Decomposition

let inf = Digraph.inf

(* Floyd-Warshall on a small matrix (in place). *)
let floyd_warshall d =
  let k_n = Array.length d in
  for k = 0 to k_n - 1 do
    for i = 0 to k_n - 1 do
      if d.(i).(k) < inf then
        for j = 0 to k_n - 1 do
          if d.(k).(j) < inf && d.(i).(k) + d.(k).(j) < d.(i).(j) then
            d.(i).(j) <- d.(i).(k) + d.(k).(j)
        done
    done
  done

let build g dec ~metrics =
  let n = Digraph.n g in
  (* lightest direct edge u -> v (both directions when undirected): per
     vertex, its out-neighbours sorted with the lightest weight to each,
     looked up by binary search (a hub sits in every bag, so scanning its
     edge list per bag would cost its degree each time) *)
  let nbr = Array.make n [||] and nbr_w = Array.make n [||] in
  for u = 0 to n - 1 do
    let other ei = Digraph.dst_of g (Digraph.edge g ei) u in
    let weight ei = (Digraph.edge g ei).Digraph.weight in
    let es = Array.copy (Digraph.out_edges g u) in
    Array.sort
      (fun a b ->
        let c = Int.compare (other a) (other b) in
        if c <> 0 then c else Int.compare (weight a) (weight b))
      es;
    (* the first edge to each neighbour is its lightest *)
    let firsts = ref [] in
    Array.iteri
      (fun k ei ->
        if other ei <> u && (k = 0 || other es.(k - 1) <> other ei) then firsts := ei :: !firsts)
      es;
    let firsts = Array.of_list (List.rev !firsts) in
    nbr.(u) <- Array.map other firsts;
    nbr_w.(u) <- Array.map weight firsts
  done;
  let direct_w u v =
    if u = v then 0
    else begin
      let vs = nbr.(u) in
      let lo = ref 0 and hi = ref (Array.length vs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if vs.(mid) < v then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length vs && vs.(!lo) = v then nbr_w.(u).(!lo) else inf
    end
  in
  (* subtree vertex sets, bottom-up *)
  let keys =
    List.sort
      (fun a b -> compare (List.length b) (List.length a))
      (Decomposition.keys dec)
  in
  let vsets : (Decomposition.key, int array) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let seen = Hashtbl.create 32 in
      Array.iter (fun v -> Hashtbl.replace seen v ()) (Decomposition.bag dec x);
      List.iter
        (fun i ->
          Array.iter (fun v -> Hashtbl.replace seen v ()) (Hashtbl.find vsets (x @ [ i ])))
        (Decomposition.children dec x);
      Hashtbl.replace vsets x
        (Array.of_list (List.sort compare (Hashtbl.fold (fun v () a -> v :: a) seen []))))
    keys;
  let labels = Array.init n Labeling.create in
  (* scratch: position of a vertex inside the current bag *)
  let pos = Array.make n (-1) in
  let child_of = Array.make n (-1) in
  let process x =
    let bag = Decomposition.bag dec x in
    let b = Array.length bag in
    Array.iteri (fun i v -> pos.(v) <- i) bag;
    (* labels take a bag's entries in one [Labeling.set_sorted] batch per
       vertex: the bag's vertices in increasing order (min-fill and
       hand-built bags are not sorted; a repeated vertex is kept once),
       the bag position of each, and the batch's distance columns *)
    let anchors = Array.of_list (List.sort_uniq Int.compare (Array.to_list bag)) in
    let order = Array.map (fun v -> pos.(v)) anchors in
    let b_to = Array.map (fun _ -> 0) order and b_from = Array.map (fun _ -> 0) order in
    let children = Decomposition.children dec x in
    let h = Array.make_matrix b b inf in
    for i = 0 to b - 1 do
      h.(i).(i) <- 0
    done;
    (match children with
    | [] ->
        (* leaf: H is just the induced subgraph on the bag *)
        for i = 0 to b - 1 do
          for j = 0 to b - 1 do
            if i <> j then h.(i).(j) <- direct_w bag.(i) bag.(j)
          done
        done
    | _ ->
        (* H_x edge cost = min(direct G edge, child-level distance) *)
        for i = 0 to b - 1 do
          for j = 0 to b - 1 do
            if i <> j then begin
              let w = direct_w bag.(i) bag.(j) in
              let la = labels.(bag.(i)) in
              let p = Labeling.position la bag.(j) in
              h.(i).(j) <- (if p < 0 then w else Int.min w (Labeling.d_to_at la p))
            end
          done
        done);
    (* edges actually present in H_x (what step 3 broadcasts) *)
    let h_edges = ref 0 in
    for i = 0 to b - 1 do
      for j = 0 to b - 1 do
        if i <> j && h.(i).(j) < inf then incr h_edges
      done
    done;
    floyd_warshall h;
    (* bag vertices learn exact in-G_x distances inside the bag *)
    Array.iteri
      (fun i u ->
        for r = 0 to Array.length order - 1 do
          let j = order.(r) in
          b_to.(r) <- h.(i).(j);
          b_from.(r) <- h.(j).(i)
        done;
        Labeling.set_sorted labels.(u) ~anchors ~d_to:b_to ~d_from:b_from)
      bag;
    (* non-bag vertices extend through their child's gateway anchors *)
    (match children with
    | [] -> ()
    | _ ->
        let vset = Hashtbl.find vsets x in
        Array.iter (fun v -> child_of.(v) <- -1) vset;
        (* gateways per child: bag positions of the bag vertices present in
           that child; [child_of] indexes this array *)
        let gateways =
          Array.of_list
            (List.mapi
               (fun k i ->
                 let cset = Hashtbl.find vsets (x @ [ i ]) in
                 Array.iter (fun v -> if pos.(v) < 0 then child_of.(v) <- k) cset;
                 Array.of_list
                   (List.filter_map
                      (fun v -> if pos.(v) >= 0 then Some pos.(v) else None)
                      (Array.to_list cset)))
               children)
        in
        (* d(u -> a) and d(a -> u) for the gateway anchors a u has *)
        let r_pos = Array.make b 0 and r_to = Array.make b 0 and r_from = Array.make b 0 in
        Array.iter
          (fun u ->
            if pos.(u) < 0 then begin
              let k = child_of.(u) in
              assert (k >= 0);
              let gs = gateways.(k) and la = labels.(u) and reach = ref 0 in
              for gi = 0 to Array.length gs - 1 do
                let p = Labeling.position la bag.(gs.(gi)) in
                if p >= 0 then begin
                  r_pos.(!reach) <- gs.(gi);
                  r_to.(!reach) <- Labeling.d_to_at la p;
                  r_from.(!reach) <- Labeling.d_from_at la p;
                  incr reach
                end
              done;
              for r = 0 to Array.length order - 1 do
                let j = order.(r) in
                let d_to = ref inf and d_from = ref inf in
                for q = 0 to !reach - 1 do
                  let ai = r_pos.(q) in
                  if r_to.(q) < inf && h.(ai).(j) < inf then
                    d_to := Int.min !d_to (r_to.(q) + h.(ai).(j));
                  if r_from.(q) < inf && h.(j).(ai) < inf then
                    d_from := Int.min !d_from (h.(j).(ai) + r_from.(q))
                done;
                b_to.(r) <- !d_to;
                b_from.(r) <- !d_from
              done;
              Labeling.set_sorted la ~anchors ~d_to:b_to ~d_from:b_from
            end)
          vset);
    Array.iter (fun v -> pos.(v) <- -1) bag;
    !h_edges
  in
  (* process by level, deepest first, charging one scheduled BCT per level.
     Every level's basis is measured on one charge tree, the root-0 BFS
     tree of the skeleton (tree-restricted shortcuts are defined relative
     to one fixed spanning tree), flooded once per build into [flood]; each
     level is still charged that flood in full (the "bfs-tree" label), as
     when every level flooded its own: the same rounds, messages and
     synchronizer counters (DESIGN §3) *)
  let flood = Metrics.create () in
  let tree =
    Bfs_tree.build (if Digraph.directed g then Digraph.skeleton g else g) ~root:0 ~metrics:flood
  in
  let by_depth = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let d = List.length x in
      Hashtbl.replace by_depth d (x :: Option.value ~default:[] (Hashtbl.find_opt by_depth d)))
    keys;
  let depths =
    List.sort (fun a b -> compare b a) (Hashtbl.fold (fun d _ acc -> d :: acc) by_depth [])
  in
  List.iter
    (fun d ->
      let level_keys = Hashtbl.find by_depth d in
      let h_max = ref 0 in
      List.iter (fun x -> h_max := max !h_max (process x)) level_keys;
      let members =
        Array.of_list (List.map (fun x -> Hashtbl.find vsets x) level_keys)
      in
      let parts = Part.make_unchecked g members in
      let b = Primitives.basis ~tree parts ~metrics in
      Metrics.merge ~into:metrics flood;
      Metrics.add metrics ~label:"dl/level" (Primitives.bct_rounds b ~h:!h_max))
    depths;
  labels

let max_label_words labels =
  Array.fold_left (fun acc la -> max acc (Labeling.size_words la)) 0 labels
