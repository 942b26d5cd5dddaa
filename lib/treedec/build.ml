module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Metrics = Repro_congest.Metrics
module Primitives = Repro_shortcut.Primitives

type report = { decomposition : Decomposition.t; max_t : int; levels : int }

type node = {
  key : Decomposition.key;
  mask : bool array;  (* V(G_x) *)
  inherited : int list;  (* B_p(x) cap V(G_x) *)
}

let mask_size = Repro_graph.Mask.size
let masked = Repro_graph.Mask.vertices

let decompose ?(profile = Separator.practical_profile) ?(seed = 0) g ~metrics =
  let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
  let n = Digraph.n skeleton in
  if n = 0 then invalid_arg "Build.decompose: empty graph";
  if not (Traversal.is_connected skeleton) then
    invalid_arg "Build.decompose: graph must be connected";
  (* every charge basis of the run is measured on this one tree *)
  let tree = Primitives.charge_tree skeleton in
  let bags = ref [] in
  let max_t = ref 0 in
  let levels = ref 0 in
  let level =
    ref [ { key = []; mask = Array.make n true; inherited = [] } ]
  in
  while !level <> [] do
    incr levels;
    let next = ref [] in
    let level_costs = ref [] in
    List.iter
      (fun node ->
        let size = mask_size node.mask in
        (* G'_x = G_x minus the inherited bag *)
        let gprime = Array.copy node.mask in
        List.iter (fun v -> gprime.(v) <- false) node.inherited;
        let sep =
          if mask_size gprime = 0 then []
          else begin
            let cost = Primitives.cost_zero () in
            let s, t_used =
              Separator.find_separator ~profile
                ~seed:(seed + (17 * List.length node.key) + List.fold_left ( + ) 0 node.key)
                ~tree skeleton ~mask:gprime ~x_mask:gprime ~cost
            in
            level_costs := cost :: !level_costs;
            if t_used > !max_t then max_t := t_used;
            s
          end
        in
        let bag = List.sort_uniq compare (sep @ node.inherited) in
        if size <= max 4 (2 * List.length bag) then
          (* leaf: the bag is the whole subgraph *)
          bags := (node.key, Array.of_list (masked (node.mask))) :: !bags
        else begin
          bags := (node.key, Array.of_list bag) :: !bags;
          (* children: components of G_x - B_x, each with adjacent bag
             vertices added back *)
          let residual = Array.copy node.mask in
          List.iter (fun v -> residual.(v) <- false) bag;
          let labels, count = Traversal.components_mask skeleton residual in
          let comp_vertices = Array.make count [] in
          for v = n - 1 downto 0 do
            let l = labels.(v) in
            if l >= 0 then comp_vertices.(l) <- v :: comp_vertices.(l)
          done;
          let in_bag = Array.make n false in
          List.iter (fun v -> in_bag.(v) <- true) bag;
          let idx = ref 0 in
          Array.iter
            (fun comp ->
              (* bag vertices adjacent to the component, within G_x: only
                 the component's incident edges can reach them *)
              let child_mask = Array.make n false in
              List.iter (fun v -> child_mask.(v) <- true) comp;
              let inherited = ref [] in
              let touch b =
                if in_bag.(b) && node.mask.(b) && not child_mask.(b) then begin
                  child_mask.(b) <- true;
                  inherited := b :: !inherited
                end
              in
              List.iter (fun v -> Digraph.iter_adjacent skeleton v touch) comp;
              let child_size = mask_size child_mask in
              if child_size >= size then
                (* no shrink: close off as a leaf to guarantee termination *)
                bags := (node.key @ [ !idx ], Array.of_list (masked child_mask)) :: !bags
              else
                next :=
                  { key = node.key @ [ !idx ]; mask = child_mask;
                    inherited = List.sort_uniq compare !inherited }
                  :: !next;
              incr idx)
            comp_vertices;
          let ccd_parts = Repro_shortcut.Part.of_labels skeleton labels in
          if count > 0 then begin
            let b = Primitives.basis ~tree ccd_parts ~metrics:(Metrics.create ()) in
            Metrics.add metrics ~label:"treedec/ccd" (Primitives.lemma8_rounds b)
          end
        end)
      !level;
    if !level_costs <> [] then
      Metrics.add metrics ~label:"treedec/level" (Primitives.schedule_disjoint !level_costs);
    level := !next
  done;
  let decomposition = Decomposition.create g !bags in
  { decomposition; max_t = !max_t; levels = !levels }

