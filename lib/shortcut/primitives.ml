module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Bfs_tree = Repro_congest.Bfs_tree
module Metrics = Repro_congest.Metrics

type basis = { depth : int; max_load : int; n : int }

let ceil_log2 x =
  let rec go acc v = if v >= x then acc else go (acc + 1) (2 * v) in
  if x <= 1 then 1 else go 0 1

let skeleton_of g = if Digraph.directed g then Digraph.skeleton g else g

let charge_tree g = Bfs_tree.build (skeleton_of g) ~root:0 ~metrics:(Metrics.create ())

let basis ?tree (parts : Part.t) ~metrics =
  let g = parts.Part.graph in
  let tree =
    match tree with Some t -> t | None -> Bfs_tree.build (skeleton_of g) ~root:0 ~metrics
  in
  let stats = Pa.loads tree parts in
  { depth = stats.Pa.depth; max_load = stats.Pa.max_load; n = Digraph.n g }

(* one PA invocation: an up and a down phase *)
let pa_rounds b = 2 * (b.depth + b.max_load)
let lemma8_rounds b = ceil_log2 b.n * pa_rounds b
let bct_rounds b ~h = (2 * b.depth) + (h * b.max_load)
let mvc_rounds b ~h ~t = (t * 2 * b.depth) + (h * t * b.max_load)

let schedule charges =
  List.fold_left (fun (dmax, csum) (d, c) -> (max dmax d, csum + c)) (0, 0) charges
  |> fun (dmax, csum) -> dmax + csum

let elect ?tree (parts : Part.t) ~candidate ~metrics ~label =
  let results, _ =
    Pa.aggregate ?tree parts ~op:min
      ~value:(fun ~part:_ ~vertex -> if candidate vertex then vertex else max_int)
      ~metrics ~label
  in
  results

let components g ~mask ~metrics ~label =
  let labels, count = Traversal.components_mask g mask in
  if count > 0 then begin
    let parts = Part.of_labels g labels in
    let b = basis parts ~metrics in
    Metrics.add metrics ~label (lemma8_rounds b)
  end;
  (labels, count)

type cost = { mutable dilation : int; mutable congestion : int }

let cost_zero () = { dilation = 0; congestion = 0 }

let cost_pa c b ~inv =
  c.dilation <- c.dilation + (inv * 2 * b.depth);
  c.congestion <- c.congestion + (inv * 2 * b.max_load)

let cost_lemma8 c b = cost_pa c b ~inv:(ceil_log2 b.n)

let cost_bct c b ~h =
  c.dilation <- c.dilation + (2 * b.depth);
  c.congestion <- c.congestion + (h * b.max_load)

let cost_mvc c b ~h ~t =
  c.dilation <- c.dilation + (t * 2 * b.depth);
  c.congestion <- c.congestion + (h * t * b.max_load)

let cost_rounds c = c.dilation + c.congestion

let schedule_disjoint costs =
  List.fold_left
    (fun (dmax, cmax) c -> (max dmax c.dilation, max cmax c.congestion))
    (0, 0) costs
  |> fun (dmax, cmax) -> dmax + cmax
