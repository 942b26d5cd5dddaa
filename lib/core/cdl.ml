module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Metrics = Repro_congest.Metrics
module Build = Repro_treedec.Build

type t = { product : Product.t; labels : Labeling.t array }

let build ?dec ?(seed = 0) g spec ~metrics =
  let dec =
    match dec with
    | Some d -> d
    | None -> (Build.decompose ~seed g ~metrics).Build.decomposition
  in
  let product = Product.build g spec in
  let lifted = Product.lift_decomposition product dec in
  (* run Theorem 2 on G_C; charge the measured rounds times the
     simulation overhead |Q| * p_max (Section 5.2) *)
  let sub = Metrics.create () in
  let labels = Dl.build product.Product.product lifted ~metrics:sub in
  Metrics.add metrics ~label:"cdl/simulated" (Metrics.rounds sub * Product.overhead product);
  Metrics.add_count metrics Messages (Metrics.get sub Messages * Product.overhead product);
  { product; labels }

let product t = t.product
let labels t = t.labels

let sdec t ~q ~src ~dst =
  let s = Product.encode t.product src t.product.Product.spec.Stateful.start in
  let d = Product.encode t.product dst q in
  Labeling.decode t.labels.(s) t.labels.(d)

let self_distance t ~q v = sdec t ~q ~src:v ~dst:v

let label_words t v =
  let q_size = t.product.Product.spec.Stateful.q_size in
  let total = ref 0 in
  for q = 0 to q_size - 1 do
    total := !total + Labeling.size_words t.labels.(Product.encode t.product v q)
  done;
  !total

let shortest_walk t ~q ~src ~dst ~metrics =
  let walk = Product.shortest_constrained_walk t.product ~q ~src ~dst in
  (match walk with
  | Some edges ->
      (* Corollary 1: each walk node learns its predecessor and distance;
         charged as one D-bounded coordination plus the walk length *)
      let d = Traversal.diameter (Digraph.skeleton t.product.Product.graph) in
      Metrics.add metrics ~label:"cdl/walk" (d + List.length edges)
  | None ->
      let d = Traversal.diameter (Digraph.skeleton t.product.Product.graph) in
      Metrics.add metrics ~label:"cdl/walk" d);
  walk

let sdec_min t ~qs ~src ~dst =
  List.fold_left (fun acc q -> min acc (sdec t ~q ~src ~dst)) Digraph.inf qs
