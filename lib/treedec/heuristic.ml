module Digraph = Repro_graph.Digraph

(* mutable adjacency over vertex sets, used by elimination simulations *)
let adjacency g =
  let n = Digraph.n g in
  let adj = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iter
    (fun e ->
      let u = e.Digraph.src and v = e.Digraph.dst in
      if u <> v then begin
        Hashtbl.replace adj.(u) v ();
        Hashtbl.replace adj.(v) u ()
      end)
    (Digraph.edges g);
  adj

let neighbors_list adj v = Hashtbl.fold (fun u () acc -> u :: acc) adj.(v) []

let eliminate adj v =
  let nbrs = neighbors_list adj v in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then begin
            Hashtbl.replace adj.(a) b ();
            Hashtbl.replace adj.(b) a ()
          end)
        nbrs;
      Hashtbl.remove adj.(a) v)
    nbrs;
  Hashtbl.reset adj.(v)

let fill_in adj v =
  let nbrs = neighbors_list adj v in
  let missing = ref 0 in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> if not (Hashtbl.mem adj.(a) b) then incr missing) rest;
        pairs rest
  in
  pairs nbrs;
  !missing

let order_by g score =
  let n = Digraph.n g in
  let adj = adjacency g in
  let alive = Array.make n true in
  let order = Array.make n (-1) in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_score = ref (max_int, max_int) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let s = score adj v in
        if s < !best_score then begin
          best_score := s;
          best := v
        end
      end
    done;
    order.(step) <- !best;
    alive.(!best) <- false;
    eliminate adj !best
  done;
  order

(* smallest fill-in first, ties by degree *)
let min_fill_order g =
  order_by g (fun adj v -> (fill_in adj v, Hashtbl.length adj.(v)))

let min_degree_order g =
  order_by g (fun adj v -> (Hashtbl.length adj.(v), 0))

let of_order g order =
  let n = Digraph.n g in
  if n = 0 then invalid_arg "Heuristic.of_order: empty graph";
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
  let adj = adjacency g in
  let bags = Array.make n [||] in
  Array.iter
    (fun v ->
      bags.(position.(v)) <- Array.of_list (v :: neighbors_list adj v);
      eliminate adj v)
    order;
  (* parent of bag i = bag of the earliest-eliminated other member *)
  let parents = Array.make n (-1) in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let next =
      Array.fold_left
        (fun acc u -> if u <> v && position.(u) < acc then position.(u) else acc)
        max_int bags.(i)
    in
    if next < max_int then parents.(i) <- next
  done;
  (* a connected graph yields exactly one parentless bag (the last); for
     disconnected graphs, chain extra roots under the last bag *)
  let root = n - 1 in
  for i = 0 to n - 2 do
    if parents.(i) < 0 then parents.(i) <- root
  done;
  Decomposition.of_parent_tree g ~bags ~parents

let min_fill g = of_order g (min_fill_order g)

let degeneracy g =
  let adj = adjacency g in
  let n = Digraph.n g in
  let alive = Array.make n true in
  let best = ref 0 in
  for _ = 0 to n - 1 do
    let v = ref (-1) and d = ref max_int in
    for u = 0 to n - 1 do
      if alive.(u) then begin
        let du = Hashtbl.length adj.(u) in
        if du < !d then begin
          d := du;
          v := u
        end
      end
    done;
    best := max !best !d;
    alive.(!v) <- false;
    let nbrs = neighbors_list adj !v in
    List.iter (fun u -> Hashtbl.remove adj.(u) !v) nbrs;
    Hashtbl.reset adj.(!v)
  done;
  !best

let treewidth_upper g =
  min
    (Decomposition.width (of_order g (min_fill_order g)))
    (Decomposition.width (of_order g (min_degree_order g)))
