module Digraph = Repro_graph.Digraph
module Shortest_path = Repro_graph.Shortest_path
module Decomposition = Repro_treedec.Decomposition

type t = {
  graph : Digraph.t;
  product : Digraph.t;
  spec : Stateful.t;
  p_max : int;
}

let build g spec =
  let n = Digraph.n g in
  let q = spec.Stateful.q_size in
  let enc v s = (v * q) + s in
  let edges = ref [] in
  let add_transitions e src dst =
    for i = 0 to q - 1 do
      let j = spec.Stateful.delta e i in
      if j < 0 || j >= q then invalid_arg "Product.build: delta out of range";
      edges := (enc src i, enc dst j, e.Digraph.weight, e.Digraph.id) :: !edges
    done
  in
  Array.iter
    (fun e ->
      add_transitions e e.Digraph.src e.Digraph.dst;
      if (not (Digraph.directed g)) && e.Digraph.src <> e.Digraph.dst then
        add_transitions e e.Digraph.dst e.Digraph.src)
    (Digraph.edges g);
  (* condition (2): drop-to-bot edges keep the skeleton diameter O(D) *)
  for v = 0 to n - 1 do
    for i = 0 to q - 1 do
      if i <> spec.Stateful.bot then
        edges := (enc v i, enc v spec.Stateful.bot, 0, -1) :: !edges
    done
  done;
  let product = Digraph.create_labeled ~directed:true (n * q) (List.rev !edges) in
  { graph = g; product; spec; p_max = Digraph.max_multiplicity g }

let encode t v q = (v * t.spec.Stateful.q_size) + q

let overhead t = t.spec.Stateful.q_size * t.p_max

let constrained_distance t ~q ~src ~dst =
  let d = Shortest_path.dijkstra t.product (encode t src t.spec.Stateful.start) in
  d.(encode t dst q)

let shortest_constrained_walk t ~q ~src ~dst =
  let dist, pred =
    Shortest_path.dijkstra_tree t.product (encode t src t.spec.Stateful.start)
  in
  let target = encode t dst q in
  if dist.(target) >= Digraph.inf then None
  else
    let path = Shortest_path.path_of_tree t.product pred target in
    Some
      (List.filter_map
         (fun ei ->
           let lbl = (Digraph.edge t.product ei).Digraph.label in
           if lbl >= 0 then Some lbl else None)
         path)

let lift_decomposition t dec =
  let q = t.spec.Stateful.q_size in
  let lift_bag bag =
    Array.concat
      (Array.to_list (Array.map (fun v -> Array.init q (fun s -> (v * q) + s)) bag))
  in
  Decomposition.create t.product
    (List.map (fun k -> (k, lift_bag (Decomposition.bag dec k))) (Decomposition.keys dec))
