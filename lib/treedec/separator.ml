module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Metrics = Repro_congest.Metrics
module Part = Repro_shortcut.Part
module Mvc = Repro_shortcut.Mvc
module Primitives = Repro_shortcut.Primitives

type profile = {
  name : string;
  threshold_factor : int;
  iter_num : int;
  iter_den : int;
  pairs : int;
  balance_num : int;
  balance_den : int;
  split_lo_den : int;
  split_hi_den : int;
  trials : int;
  centralized_base : bool;
}

let paper_profile =
  {
    name = "paper";
    threshold_factor = 200;
    iter_num = 301;
    iter_den = 300;
    pairs = 95;
    balance_num = 14399;
    balance_den = 14400;
    split_lo_den = 12;
    split_hi_den = 4;
    trials = 16;
    centralized_base = false;
  }

let practical_profile =
  {
    name = "practical";
    threshold_factor = 4;
    iter_num = 3;
    iter_den = 2;
    pairs = 24;
    balance_num = 3;
    balance_den = 4;
    split_lo_den = 12;
    split_hi_den = 4;
    trials = 6;
    centralized_base = true;
  }

let mu_of ~mask ~x_mask v = if mask.(v) && x_mask.(v) then 1 else 0

let weight_of_mask g ~mask ~x_mask =
  let total = ref 0 in
  for v = 0 to Digraph.n g - 1 do
    total := !total + mu_of ~mask ~x_mask v
  done;
  !total

let is_balanced g ~mask ~x_mask ~profile sep =
  let total = weight_of_mask g ~mask ~x_mask in
  let mask' = Array.copy mask in
  List.iter (fun v -> mask'.(v) <- false) sep;
  let labels, count = Traversal.components_mask g mask' in
  let weights = Array.make (max 1 count) 0 in
  Array.iteri
    (fun v l -> if l >= 0 then weights.(l) <- weights.(l) + mu_of ~mask:mask' ~x_mask v)
    labels;
  Array.for_all (fun w -> profile.balance_den * w <= profile.balance_num * total) weights

let masked_vertices mask = Repro_graph.Mask.vertices mask

(* BFS spanning tree of the masked subgraph, as tree adjacency lists *)
let spanning_tree_adj g ~mask ~root =
  let n = Digraph.n g in
  let adj = Array.make n [] in
  let visited = Array.make n false in
  visited.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let scan ei =
      let e = Digraph.edge g ei in
      let grab u =
        if u <> v && mask.(u) && not visited.(u) then begin
          visited.(u) <- true;
          adj.(v) <- u :: adj.(v);
          adj.(u) <- v :: adj.(u);
          Queue.add u queue
        end
      in
      grab e.Digraph.src;
      grab e.Digraph.dst
    in
    Array.iter scan (Digraph.out_edges g v);
    if Digraph.directed g then Array.iter scan (Digraph.in_edges g v)
  done;
  adj

let heaviest_component g ~mask ~x_mask =
  let labels, count = Traversal.components_mask g mask in
  if count = 0 then None
  else begin
    let weights = Array.make count 0 in
    Array.iteri
      (fun v l -> if l >= 0 then weights.(l) <- weights.(l) + mu_of ~mask ~x_mask v)
      labels;
    let best = ref 0 in
    Array.iteri (fun c w -> if w > weights.(!best) then best := c) weights;
    Some (Array.map (fun l -> l = !best) labels)
  end


(* Centralized base case: the subgraph is small enough to gather at one
   node (charged as a broadcast); a bag of its min-fill decomposition is a
   balanced separator of width-sized cost. *)
let centralized_base_separator g ~mask ~x_mask ~profile =
  let vs = masked_vertices mask in
  match vs with
  | [] -> []
  | _ -> (
      let sub, old_of_new, _new_of_old = Repro_graph.Digraph.induced g vs in
      (* min-fill gives the best bags but costs ~n^3 locally; fall back to
         min-degree beyond 150 vertices (local computation is free in the
         CONGEST model, but keep the simulator fast) *)
      let dec =
        if Repro_graph.Digraph.n sub <= 150 then Heuristic.min_fill sub
        else Heuristic.of_order sub (Heuristic.min_degree_order sub)
      in
      let total = weight_of_mask g ~mask ~x_mask in
      (* score each bag on [sub]: the heaviest component's weight does not
         depend on the vertex numbering *)
      let in_x = Array.map (fun v -> x_mask.(v)) old_of_new in
      let evaluate bag =
        let rest = Array.make (Array.length old_of_new) true in
        Array.iter (fun v -> rest.(v) <- false) bag;
        let labels, count = Traversal.components_mask sub rest in
        let weights = Array.make (max 1 count) 0 in
        Array.iteri
          (fun v l -> if l >= 0 && in_x.(v) then weights.(l) <- weights.(l) + 1)
          labels;
        Array.fold_left max 0 weights
      in
      let best = ref None in
      List.iter
        (fun key ->
          let bag = Decomposition.bag dec key in
          let worst = evaluate bag in
          match !best with
          | Some (w, _) when w <= worst -> ()
          | _ -> best := Some (worst, bag))
        (Decomposition.keys dec);
      match !best with
      | Some (worst, bag) when profile.balance_den * worst <= profile.balance_num * total ->
          List.map (fun v -> old_of_new.(v)) (Array.to_list bag)
      | _ -> List.filter (fun v -> x_mask.(v)) vs)

(* One SEP attempt with parameter [t]; [None] concludes tau + 1 > t. *)
let sep ~profile ~tree ~rng g ~mask ~x_mask ~t ~cost =
  let dummy_metrics = Metrics.create () in
  let basis_of parts = Primitives.basis ~tree parts ~metrics:dummy_metrics in
  let mu_total = weight_of_mask g ~mask ~x_mask in
  let all = masked_vertices mask in
  if all = [] then Some []
  else if mu_total <= profile.threshold_factor * t * t then begin
    (* step 1: the subgraph is small; either output X itself (paper) or a
       centrally computed balanced bag (practical profile) *)
    let whole = Part.make g [| Array.of_list all |] in
    if profile.centralized_base then begin
      let b = basis_of whole in
      Primitives.cost_bct cost b ~h:(Repro_graph.Mask.edge_count g mask);
      Some (List.sort compare (centralized_base_separator g ~mask ~x_mask ~profile))
    end
    else begin
      Primitives.cost_lemma8 cost (basis_of whole);
      Some (List.filter (fun v -> x_mask.(v)) all)
    end
  end
  else begin
    let iterations =
      max 1 (((profile.iter_num * t) + profile.iter_den - 1) / profile.iter_den)
    in
    let lo = max 1 (mu_total / (profile.split_lo_den * t)) in
    let hi = max (3 * lo) (mu_total / (profile.split_hi_den * t)) in
    let r_star = ref [] in
    let saved = ref [] (* (mask_i, split trees) per iteration *) in
    let current = ref (Array.copy mask) in
    let result = ref None in
    (try
       for _i = 1 to iterations do
         let mask_i = !current in
         let members = masked_vertices mask_i in
         if members = [] then raise Exit;
         (* step 2: spanning tree + SPLIT *)
         let root = List.hd members in
         let tree_adj = spanning_tree_adj g ~mask:mask_i ~root in
         let whole = Part.make g [| Array.of_list members |] in
         Primitives.cost_lemma8 cost (basis_of whole);
         let trees =
           Split.run ~tree_adj ~root ~mu:(mu_of ~mask:mask_i ~x_mask) ~lo ~hi
         in
         let tree_parts =
           Part.make g
             (Array.of_list (List.map (fun st -> Array.of_list st.Split.vertices) trees))
         in
         let split_basis = basis_of tree_parts in
         Primitives.cost_pa cost split_basis
           ~inv:(Primitives.ceil_log2 (max 2 t) * Primitives.ceil_log2 (Digraph.n g));
         saved := (mask_i, trees) :: !saved;
         (* step 3: accumulate roots, test balance *)
         let roots = List.map (fun st -> st.Split.root) trees in
         r_star := List.sort_uniq compare (roots @ !r_star);
         Primitives.cost_lemma8 cost split_basis;
         if is_balanced g ~mask ~x_mask ~profile !r_star then begin
           result := Some !r_star;
           raise Exit
         end;
         (* next graph: heaviest component of G_i - R_i *)
         let mask' = Array.copy mask_i in
         List.iter (fun v -> mask'.(v) <- false) roots;
         match heaviest_component g ~mask:mask' ~x_mask with
         | None -> raise Exit
         | Some comp -> current := comp
       done
     with Exit -> ());
    match !result with
    | Some s -> Some (List.sort compare s)
    | None ->
        (* step 4: sampled pairwise vertex cuts *)
        let z = ref !r_star in
        List.iter
          (fun (mask_i, trees) ->
            let arr = Array.of_list trees in
            let nt = Array.length arr in
            if nt >= 2 then begin
              let tree_parts =
                Part.make g
                  (Array.of_list
                     (List.map (fun st -> Array.of_list st.Split.vertices) trees))
              in
              Primitives.cost_mvc cost (basis_of tree_parts) ~h:profile.pairs ~t:(t + 1);
              for _p = 1 to profile.pairs do
                let a = Random.State.int rng nt and b = Random.State.int rng nt in
                if a <> b then begin
                  let t1 = arr.(a) and t2 = arr.(b) in
                  match
                    Mvc.min_cut g ~mask:mask_i ~sources:t1.Split.vertices
                      ~sinks:t2.Split.vertices ~limit:t
                  with
                  | Some cut -> z := cut @ !z
                  | None -> ()
                end
              done
            end)
          !saved;
        let z = List.sort_uniq compare !z in
        if is_balanced g ~mask ~x_mask ~profile z then Some z else None
  end

let find_separator ?(profile = practical_profile) ?(seed = 0) ?tree g ~mask ~x_mask ~cost =
  let tree = match tree with Some tr -> tr | None -> Primitives.charge_tree g in
  let rng = Random.State.make [| seed; Digraph.n g; 0x5e9 |] in
  let rec try_t t =
    let rec attempts k =
      if k = 0 then None
      else
        match sep ~profile ~tree ~rng g ~mask ~x_mask ~t ~cost with
        | Some s -> Some s
        | None -> attempts (k - 1)
    in
    match attempts profile.trials with
    | Some s -> (s, t)
    | None -> try_t (2 * t)
  in
  let s, t = try_t 2 in
  (* Practical-profile fallback: SEP separators have Theta(t^2) size by
     design; when one swallows more than a quarter of a small subgraph
     (useless for the decomposition recursion), gather the subgraph and
     take a min-fill bag instead — charged as the broadcast it costs. *)
  let members = masked_vertices mask in
  let size = List.length members in
  if
    profile.centralized_base && size <= 512
    && 4 * List.length s > size
  then begin
    let b =
      Primitives.basis ~tree (Part.make g [| Array.of_list members |])
        ~metrics:(Metrics.create ())
    in
    Primitives.cost_bct cost b ~h:(Repro_graph.Mask.edge_count g mask);
    let central = centralized_base_separator g ~mask ~x_mask ~profile in
    if List.length central < List.length s then (List.sort compare central, t) else (s, t)
  end
  else (s, t)
