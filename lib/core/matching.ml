module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Bipartite = Repro_graph.Bipartite
module Matching_ref = Repro_graph.Matching_ref
module Metrics = Repro_congest.Metrics
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives
module Separator = Repro_treedec.Separator
module Build = Repro_treedec.Build

type mode = [ `Faithful | `Charged ]

type result = { mate : int array; size : int; augmentations : int; levels : int }

let leaf_threshold = 16

(* weight larger than any real augmenting path (all real edges weigh 1) *)
let big n = 4 * (n + 2)

let masked_members = Repro_graph.Mask.vertices

(* The labeled graph for one augmentation step: matched edges get label 1,
   edges leaving the allowed set get the huge weight (the paper's "cost
   infinity" trick keeps the communication graph intact). *)
let alternation_graph gs ~allowed ~mate =
  let n = Digraph.n gs in
  let spec =
    Array.to_list (Digraph.edges gs)
    |> List.map (fun e ->
           let u = e.Digraph.src and v = e.Digraph.dst in
           let w = if allowed.(u) && allowed.(v) then 1 else big n in
           let lbl = if mate.(u) = v then 1 else 0 in
           (u, v, w, lbl))
  in
  Digraph.create_labeled ~directed:false n spec

(* one augmentation attempt from unmatched vertex [s]; returns true if the
   matching grew. [find] maps the labeled graph to a product+distance
   source able to answer queries; here we always search centrally on the
   product graph (the communication cost is charged by the caller). *)
let try_augment gs ~allowed ~mate ~s =
  if mate.(s) >= 0 then false
  else begin
    let lg = alternation_graph gs ~allowed ~mate in
    let c2 = Stateful.colored ~colors:2 in
    let p = Product.build lg c2 in
    let dist =
      Repro_graph.Shortest_path.dijkstra p.Product.product
        (Product.encode p s c2.Stateful.start)
    in
    let q_end = Stateful.state_index_color c2 0 in
    let n = Digraph.n gs in
    let best = ref (-1) and best_d = ref (big n) in
    for t = 0 to n - 1 do
      if t <> s && allowed.(t) && mate.(t) < 0 then begin
        let d = dist.(Product.encode p t q_end) in
        if d < !best_d then begin
          best_d := d;
          best := t
        end
      end
    done;
    if !best < 0 then false
    else begin
      match Product.shortest_constrained_walk p ~q:q_end ~src:s ~dst:!best with
      | None -> false
      | Some edge_ids ->
          let pairs =
            List.map
              (fun ei ->
                let e = Digraph.edge gs ei in
                (e.Digraph.src, e.Digraph.dst))
              edge_ids
          in
          let matched, unmatched =
            List.partition (fun (u, v) -> mate.(u) = v) pairs
          in
          List.iter
            (fun (u, v) ->
              if mate.(u) = v then begin
                mate.(u) <- -1;
                mate.(v) <- -1
              end)
            matched;
          List.iter
            (fun (u, v) ->
              mate.(u) <- v;
              mate.(v) <- u)
            unmatched;
          true
    end
  end

type rec_node = { mask : bool array; sep : int list; level : int }

let run ?(mode = `Charged) ?(seed = 0) g ~metrics =
  let gs = Digraph.skeleton g in
  if Bipartite.bipartition gs = None then
    invalid_arg "Matching.run: graph is not bipartite";
  let n = Digraph.n gs in
  let dec_report = Build.decompose ~seed gs ~metrics in
  let dec = dec_report.Build.decomposition in
  let mate = Array.make n (-1) in
  let augmentations = ref 0 in
  (* ---- top-down: build the separator recursion ---- *)
  let internal = ref [] and leaves = ref [] in
  let max_level = ref 0 in
  let queue = Queue.create () in
  (* one charge-basis tree for every separator; flooded only if needed *)
  let tree = lazy (Primitives.charge_tree gs) in
  Queue.add (Array.make n true, 0) queue;
  while not (Queue.is_empty queue) do
    let mask, level = Queue.pop queue in
    if level > !max_level then max_level := level;
    let members = masked_members mask in
    if List.length members <= leaf_threshold then leaves := (mask, level) :: !leaves
    else begin
      let cost = Primitives.cost_zero () in
      let sep, _t =
        Separator.find_separator ~seed:(seed + level) ~tree:(Lazy.force tree) gs ~mask
          ~x_mask:mask ~cost
      in
      Metrics.add metrics ~label:"matching/sep" (Primitives.cost_rounds cost);
      internal := { mask; sep; level } :: !internal;
      let mask' = Array.copy mask in
      List.iter (fun v -> mask'.(v) <- false) sep;
      let labels, count = Traversal.components_mask gs mask' in
      let comp_masks = Array.init count (fun _ -> Array.make n false) in
      Array.iteri (fun v l -> if l >= 0 then comp_masks.(l).(v) <- true) labels;
      Array.iter (fun comp -> Queue.add (comp, level + 1) queue) comp_masks
    end
  done;
  (* ---- leaves: local maximum matching (centralized base case) ---- *)
  List.iter
    (fun (mask, _) ->
      let local = Matching_ref.hopcroft_karp_mask gs mask in
      Array.iteri (fun v m -> if m >= 0 then mate.(v) <- m) local)
    !leaves;
  (if !leaves <> [] then begin
     let parts =
       Part.make_unchecked gs
         (Array.of_list
            (List.filter_map
               (fun (mask, _) ->
                 match masked_members mask with
                 | [] -> None
                 | ms -> Some (Array.of_list ms))
               !leaves))
     in
     let b = Primitives.basis parts ~metrics in
     Metrics.add metrics ~label:"matching/leaf" (Primitives.lemma8_rounds b)
   end);
  (* ---- bottom-up: re-insert separator vertices level by level ---- *)
  for level = !max_level downto 0 do
    let nodes = List.filter (fun nd -> nd.level = level) !internal in
    if nodes <> [] then begin
      let steps = ref 0 in
      let cdl_cost_once = ref None in
      List.iter
        (fun nd ->
          let sep = Array.of_list nd.sep in
          let allowed = Array.copy nd.mask in
          Array.iter (fun v -> allowed.(v) <- false) sep;
          (* paper order: S_i = {s_i, ..., s_k}; insert s_k first *)
          for i = Array.length sep - 1 downto 0 do
            allowed.(sep.(i)) <- true;
            incr augmentations;
            (match mode with
            | `Faithful ->
                (* physically run the CDL construction of Theorem 3 on the
                   weight-masked graph *)
                let lg = alternation_graph gs ~allowed ~mate in
                ignore (Cdl.build ~dec ~seed lg (Stateful.colored ~colors:2) ~metrics)
            | `Charged -> (
                match !cdl_cost_once with
                | Some _ -> ()
                | None ->
                    let sub = Metrics.create () in
                    let lg = alternation_graph gs ~allowed ~mate in
                    ignore (Cdl.build ~dec ~seed lg (Stateful.colored ~colors:2) ~metrics:sub);
                    cdl_cost_once := Some (Metrics.rounds sub)));
            ignore (try_augment gs ~allowed ~mate ~s:sep.(i))
          done;
          steps := max !steps (Array.length sep))
        nodes;
      (match (mode, !cdl_cost_once) with
      | `Charged, Some c ->
          (* steps run sequentially; sibling nodes run in parallel *)
          Metrics.add metrics ~label:"matching/augment" (!steps * c)
      | _ -> ())
    end
  done;
  {
    mate;
    size = Matching_ref.size mate;
    augmentations = !augmentations;
    levels = !max_level + 1;
  }

let sequential_baseline g ~metrics =
  let gs = Digraph.skeleton g in
  if Bipartite.bipartition gs = None then
    invalid_arg "Matching.sequential_baseline: graph is not bipartite";
  let n = Digraph.n gs in
  let d = Traversal.diameter gs in
  let mate = Array.make n (-1) in
  let allowed = Array.make n true in
  let augmentations = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    for s = 0 to n - 1 do
      if mate.(s) < 0 then begin
        incr augmentations;
        (* one global alternating-BFS phase: Omega(D) rounds, plus the
           path length for the flip *)
        let grew = try_augment gs ~allowed ~mate ~s in
        Metrics.add metrics ~label:"baseline/phase" (d + 1);
        if grew then progress := true
      end
    done
  done;
  { mate; size = Matching_ref.size mate; augmentations = !augmentations; levels = 0 }
