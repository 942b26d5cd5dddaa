module Digraph = Repro_graph.Digraph
module Bfs_tree = Repro_congest.Bfs_tree
module Metrics = Repro_congest.Metrics

type stats = { depth : int; max_load : int; rounds_up : int; rounds_down : int }

(* For every part, the Steiner tree of its members within the BFS tree:
   first mark the member-to-root paths, then trim the shared chain above
   the members' meeting point (LCA). Aggregation completes at the
   part's apex (the top of its Steiner tree) instead of the global root,
   which keeps congestion proportional to how much the parts' regions
   overlap — the tree-restricted-shortcut behaviour of [HIZ16] — rather
   than to the number of parts. *)
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
  (* children within the marked set, per part *)
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
  (* trim: walk from the root down the single-child chain of non-member
     vertices; the first branching point or member is the apex *)
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
  (* the apex never uses its up-edge: drop its mark so measured congestion
     reflects edges actually carrying the tag *)
  Array.iteri (fun p a -> Hashtbl.remove marked (a, p)) apex;
  (marked, marked_children, apex)

(* per-vertex tallies live in tables sized by the parts, not by n *)
let bump tbl v =
  let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl v) in
  Hashtbl.replace tbl v c;
  c

let loads_of marked =
  let per_vertex = Hashtbl.create 64 in
  Hashtbl.fold (fun (v, _) () best -> max best (bump per_vertex v)) marked 0

(* Lemma 7 (near-disjoint collections): a vertex shared between parts
   hands its contribution to a private neighbor of each part in one
   parallel round, so the aggregation itself runs over the vertex-disjoint
   private member sets. Returns the reduced collection, the delegation map
   (shared vertex -> receiving private member per part) and whether any
   delegation happened. *)
let delegate_shared (parts : Part.t) =
  let g = parts.Part.graph in
  let occurrences = Hashtbl.create 64 in
  let any_shared =
    Array.fold_left
      (Array.fold_left (fun acc v -> bump occurrences v > 1 || acc))
      false parts.Part.members
  in
  let shared v = Hashtbl.find occurrences v > 1 in
  if not any_shared then (parts, [||], false)
  else begin
    let delegations = Array.map (fun _ -> []) parts.Part.members in
    let reduced =
      Array.mapi
        (fun p members ->
          let private_set = Hashtbl.create 16 in
          Array.iter (fun v -> if not (shared v) then Hashtbl.replace private_set v ()) members;
          let kept = ref [] in
          Array.iter
            (fun v ->
              if not (shared v) then kept := v :: !kept
              else begin
                (* the smallest-id private neighbor receives *)
                let receiver = ref (-1) in
                Digraph.iter_adjacent g v (fun u ->
                    if Hashtbl.mem private_set u && (!receiver < 0 || u < !receiver) then
                      receiver := u);
                if !receiver >= 0 then delegations.(p) <- (v, !receiver) :: delegations.(p)
                else kept := v :: !kept (* no private neighbor: keep *)
              end)
            members;
          Array.of_list (List.rev !kept))
        parts.Part.members
    in
    (* drop empty parts? keep indices stable: an all-shared part keeps its
       members (each had no private neighbor) *)
    let reduced =
      Array.mapi
        (fun p m -> if Array.length m = 0 then parts.Part.members.(p) else m)
        reduced
    in
    ({ parts with Part.members = reduced }, delegations, true)
  end


(* Intra-part routing: a connected part can aggregate over its own BFS
   spanning tree; disjoint parts do so in perfect parallel (congestion 1).
   Returns the maximum part-tree depth, or None if some part is not
   connected inside the skeleton (then only the Steiner route applies). *)
let intra_part_depth (parts : Part.t) =
  let g = parts.Part.graph in
  let worst = ref 0 in
  let ok = ref true in
  Array.iter
    (fun members ->
      if !ok && Array.length members > 0 then begin
        (* hop distance from the first member; -1 = member not reached *)
        let dist = Hashtbl.create (Array.length members) in
        Array.iter (fun v -> Hashtbl.replace dist v (-1)) members;
        let queue = Queue.create () in
        Hashtbl.replace dist members.(0) 0;
        Queue.add members.(0) queue;
        let seen = ref 1 in
        let local_depth = ref 0 in
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          let dv = Hashtbl.find dist v in
          if dv > !local_depth then local_depth := dv;
          Digraph.iter_adjacent g v (fun u ->
              if Hashtbl.find_opt dist u = Some (-1) then begin
                Hashtbl.replace dist u (dv + 1);
                incr seen;
                Queue.add u queue
              end)
        done;
        if !seen < Array.length members then ok := false
        else if !local_depth > !worst then worst := !local_depth
      end)
    parts.Part.members;
  if !ok then Some !worst else None

let loads tree parts =
  let parts, _, _ = delegate_shared parts in
  let marked, _, _ = steiner_marks tree parts in
  let steiner_load = loads_of marked in
  let steiner = (tree.Bfs_tree.depth, steiner_load) in
  let depth, max_load =
    match intra_part_depth parts with
    | Some d when d + 1 < fst steiner + snd steiner -> (d, 1)
    | _ -> steiner
  in
  { depth; max_load; rounds_up = 0; rounds_down = 0 }

let aggregate ?tree (parts : Part.t) ~op ~value ~metrics ~label =
  let g = parts.Part.graph in
  let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
  let tree =
    match tree with Some t -> t | None -> Bfs_tree.build skeleton ~root:0 ~metrics
  in
  let parts, delegations, delegated = delegate_shared parts in
  (* fold delegated contributions into their receivers *)
  let extra = Hashtbl.create 16 in
  Array.iteri
    (fun p ds ->
      List.iter
        (fun (v, u) ->
          let x = value ~part:p ~vertex:v in
          match Hashtbl.find_opt extra (u, p) with
          | Some y -> Hashtbl.replace extra (u, p) (op y x)
          | None -> Hashtbl.add extra (u, p) x)
        ds)
    delegations;
  let value ~part ~vertex =
    let own = value ~part ~vertex in
    match Hashtbl.find_opt extra (vertex, part) with
    | Some y -> op own y
    | None -> own
  in
  let n = Array.length tree.Bfs_tree.parent in
  let num_parts = Part.count parts in
  let marked, marked_children, apex = steiner_marks tree parts in
  let max_load = loads_of marked in
  let children_of v p =
    match Hashtbl.find_opt marked_children (v, p) with Some l -> !l | None -> []
  in
  (* partial aggregates, seeded with own contributions *)
  let acc = Hashtbl.create 256 in
  let fold_in key x =
    match Hashtbl.find_opt acc key with
    | Some y -> Hashtbl.replace acc key (op y x)
    | None -> Hashtbl.replace acc key x
  in
  Array.iteri
    (fun p members ->
      Array.iter (fun v -> fold_in (v, p) (value ~part:p ~vertex:v)) members)
    parts.Part.members;
  (* sites = marked vertices plus each apex *)
  let sites = Hashtbl.create 256 in
  Hashtbl.iter (fun (v, p) () -> Hashtbl.replace sites (v, p) ()) marked;
  Array.iteri (fun p a -> Hashtbl.replace sites (a, p) ()) apex;
  let left = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (v, p) () -> Hashtbl.replace left (v, p) (ref (List.length (children_of v p))))
    sites;
  let queues = Array.make n [] in
  let push v p = queues.(v) <- queues.(v) @ [ p ] in
  Hashtbl.iter
    (fun (v, p) r -> if !r = 0 && v <> apex.(p) then push v p)
    left;
  (* --- up phase: one tagged word per tree edge per round --- *)
  let rounds_up = ref 0 in
  let messages = ref 0 in
  let some_queue qs = Array.exists (fun q -> q <> []) qs in
  while some_queue queues do
    incr rounds_up;
    let deliveries = ref [] in
    Array.iteri
      (fun v q ->
        match q with
        | [] -> ()
        | p :: rest ->
            queues.(v) <- rest;
            incr messages;
            deliveries :=
              (tree.Bfs_tree.parent.(v), p, Hashtbl.find acc (v, p)) :: !deliveries)
      (Array.copy queues);
    List.iter
      (fun (parent, p, x) ->
        fold_in (parent, p) x;
        match Hashtbl.find_opt left (parent, p) with
        | Some r ->
            decr r;
            if !r = 0 && parent <> apex.(p) then push parent p
        | None -> ())
      !deliveries
  done;
  let results =
    Array.init num_parts (fun p ->
        match Hashtbl.find_opt acc (apex.(p), p) with
        | Some x -> x
        | None ->
            (* degenerate fallback: fold directly *)
            let members = parts.Part.members.(p) in
            Array.fold_left
              (fun acc_opt v ->
                let x = value ~part:p ~vertex:v in
                match acc_opt with None -> Some x | Some y -> Some (op y x))
              None members
            |> Option.get)
  in
  (* --- down phase: stream (part, result) back down the Steiner tree.
     Bandwidth is per edge: a vertex may push different parts' results to
     different children in the same round, so each (vertex, child) edge
     has its own FIFO. --- *)
  let edge_queues : (int * int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let enqueue v c p =
    match Hashtbl.find_opt edge_queues (v, c) with
    | Some q -> q := !q @ [ p ]
    | None -> Hashtbl.add edge_queues (v, c) (ref [ p ])
  in
  Array.iteri
    (fun p a -> List.iter (fun c -> enqueue a c p) (children_of a p))
    apex;
  let rounds_down = ref 0 in
  let some_edge () = Hashtbl.fold (fun _ q acc -> acc || !q <> []) edge_queues false in
  while some_edge () do
    incr rounds_down;
    let deliveries = ref [] in
    Hashtbl.iter
      (fun (_, c) q ->
        match !q with
        | [] -> ()
        | p :: rest ->
            q := rest;
            incr messages;
            deliveries := (c, p) :: !deliveries)
      edge_queues;
    List.iter
      (fun (c, p) -> List.iter (fun c' -> enqueue c c' p) (children_of c p))
      !deliveries
  done;
  let delegation_rounds = if delegated then 2 else 0 in
  (* race the two routes: Steiner (simulated above) vs intra-part trees;
     a distributed implementation runs both and keeps the first finisher *)
  let rounds_up, rounds_down =
    match intra_part_depth parts with
    | Some d when (2 * (d + 1)) < !rounds_up + !rounds_down -> (d + 1, d + 1)
    | _ -> (!rounds_up, !rounds_down)
  in
  Metrics.add metrics ~label (rounds_up + rounds_down + delegation_rounds);
  Metrics.add_count metrics Messages !messages;
  ( results,
    { depth = tree.Bfs_tree.depth; max_load; rounds_up; rounds_down } )
