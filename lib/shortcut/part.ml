module Digraph = Repro_graph.Digraph

type t = { graph : Digraph.t; members : int array array }

(* BFS from the first member through members only: the work is
   proportional to the part and its incident edges, not to n *)
let connected_within g vs =
  match Array.length vs with
  | 0 -> false
  | 1 -> true
  | len ->
      let reached = Hashtbl.create len in
      Array.iter (fun v -> Hashtbl.replace reached v false) vs;
      let queue = Queue.create () in
      Hashtbl.replace reached vs.(0) true;
      Queue.add vs.(0) queue;
      let count = ref 1 in
      while not (Queue.is_empty queue) do
        Digraph.iter_adjacent g (Queue.pop queue) (fun u ->
            if Hashtbl.find_opt reached u = Some false then begin
              Hashtbl.replace reached u true;
              incr count;
              Queue.add u queue
            end)
      done;
      !count = Hashtbl.length reached

let make g members =
  Array.iteri
    (fun i vs ->
      Array.iter
        (fun v ->
          if v < 0 || v >= Digraph.n g then
            invalid_arg (Printf.sprintf "Part.make: vertex %d out of range" v))
        vs;
      if not (connected_within g vs) then
        invalid_arg (Printf.sprintf "Part.make: part %d is empty or disconnected" i))
    members;
  { graph = g; members }

let of_labels g labels =
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun v l ->
      if l >= 0 then
        match Hashtbl.find_opt groups l with
        | Some acc -> acc := v :: !acc
        | None -> Hashtbl.add groups l (ref [ v ]))
    labels;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) groups [] |> List.sort compare in
  let members =
    Array.of_list
      (List.map (fun k -> Array.of_list (List.rev !(Hashtbl.find groups k))) keys)
  in
  make g members

let count t = Array.length t.members

let parts_of t =
  let belongs = Array.make (Digraph.n t.graph) [] in
  Array.iteri
    (fun p vs -> Array.iter (fun v -> belongs.(v) <- p :: belongs.(v)) vs)
    t.members;
  Array.map List.rev belongs

let is_vertex_disjoint t =
  Array.for_all (fun ps -> List.length ps <= 1) (parts_of t)

let is_near_disjoint t =
  let g = t.graph in
  let belongs = parts_of t in
  let multiplicity v = List.length belongs.(v) in
  (* condition 1: every skeleton edge has an endpoint in <= 1 part *)
  let cond1 =
    Array.for_all
      (fun e ->
        multiplicity e.Digraph.src <= 1 || multiplicity e.Digraph.dst <= 1)
      (Digraph.edges (Digraph.skeleton g))
  in
  (* condition 2: private vertices of each part induce a connected graph *)
  let cond2 =
    Array.for_all
      (fun vs ->
        let private_vs = Array.of_list (List.filter (fun v -> multiplicity v = 1)
                                          (Array.to_list vs)) in
        Array.length private_vs > 0 && connected_within g private_vs)
      t.members
  in
  cond1 && cond2

let make_unchecked g members = { graph = g; members }
