module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Pqueue = Repro_graph.Pqueue
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Broadcast = Repro_congest.Broadcast
module Primitives = Repro_shortcut.Primitives
module Build = Repro_treedec.Build

type mode = [ `Faithful | `Charged | `PerEdge ]
type result = { girth : int; trials : int }

let inf = Digraph.inf

(* convergecast of the global minimum over a BFS tree (message level);
   values can be inf, which we clamp to a sentinel word *)
let aggregate_min ?faults ?reliable skeleton values ~metrics =
  let sentinel = inf in
  let tree = Bfs_tree.build ?faults ?reliable skeleton ~root:0 ~metrics in
  let clamped = Array.map (fun v -> min v sentinel) values in
  Broadcast.convergecast ?faults ?reliable tree ~op:min ~values:clamped ~metrics

let default_dec ?dec ?(seed = 0) g ~metrics =
  match dec with
  | Some d -> d
  | None -> (Build.decompose ~seed (Digraph.skeleton g) ~metrics).Build.decomposition

let directed ?dec ?(seed = 0) ?faults ?reliable g ~metrics =
  if not (Digraph.directed g) then invalid_arg "Girth.directed: graph is undirected";
  let dec = default_dec ?dec ~seed g ~metrics in
  let labels = Dl.build g dec ~metrics in
  (* label exchange across every edge, in parallel: pipelined label words *)
  Metrics.add metrics ~label:"girth/exchange" (2 * Dl.max_label_words labels);
  let n = Digraph.n g in
  let candidate = Array.make n inf in
  Array.iter
    (fun e ->
      let u = e.Digraph.src and v = e.Digraph.dst in
      let c =
        if u = v then e.Digraph.weight
        else
          let back = Labeling.decode labels.(v) labels.(u) in
          if back >= inf then inf else e.Digraph.weight + back
      in
      if c < candidate.(u) then candidate.(u) <- c)
    (Digraph.edges g);
  let g_min = aggregate_min ?faults ?reliable (Digraph.skeleton g) candidate ~metrics in
  { girth = g_min; trials = 1 }

(* [min bound v], where v is the minimum over closed exact-count-1 walks
   under labeling [labeled]: every such walk crosses one labeled edge
   e=(a,b) and otherwise avoids labeled edges, so v is the min over
   labeled e of w(e) + d_0(b,a), d_0 the distance in G minus the labeled
   edges. Each e gets one Dijkstra from b over [g] itself that skips
   labeled edges and stops once it cannot beat the running best: e is
   skipped when w(e) >= best, nothing at distance >= best - w(e) is
   queued, and the search ends when a is popped (its distance is then
   final). Returning [min bound v] instead of v is exact for every
   caller: a trial's value only feeds [best := min best v], and neither
   the trial count nor any Metrics charge reads a value, so girth,
   trials, metrics and traces are those of the unbounded search. *)
let min_exact_count1 g ~labeled ~bound =
  let n = Digraph.n g in
  let dist = Array.make n inf in
  let touched = Array.make n 0 and n_touched = ref 0 in
  let queue = Pqueue.create () in
  let relax v d =
    if dist.(v) = inf then begin
      touched.(!n_touched) <- v;
      incr n_touched
    end;
    dist.(v) <- d;
    Pqueue.push queue d v
  in
  let best = ref bound in
  Array.iter
    (fun e ->
      let a = e.Digraph.src and b = e.Digraph.dst and w = e.Digraph.weight in
      if labeled e.Digraph.id && w < !best then
        if a = b then best := w
        else begin
          let limit = !best - w in
          relax b 0;
          while not (Pqueue.is_empty queue) do
            let d, v = Pqueue.pop_min queue in
            if v = a then begin
              best := w + d;
              while not (Pqueue.is_empty queue) do
                ignore (Pqueue.pop_min queue)
              done
            end
            else if d = dist.(v) then begin
              let out = Digraph.out_edges g v in
              for k = 0 to Array.length out - 1 do
                if not (labeled out.(k)) then begin
                  let e' = Digraph.edge g out.(k) in
                  let u = Digraph.dst_of g e' v and nd = d + e'.Digraph.weight in
                  if nd < limit && nd < dist.(u) then relax u nd
                end
              done
            end
          done;
          for i = 0 to !n_touched - 1 do
            dist.(touched.(i)) <- inf
          done;
          n_touched := 0
        end)
    (Digraph.edges g);
  !best

let undirected ?(mode = `Charged) ?repeats ?dec ?(seed = 0) ?faults ?reliable g ~metrics =
  if Digraph.directed g then invalid_arg "Girth.undirected: graph is directed";
  let n = Digraph.n g and m = Digraph.m g in
  let repeats = match repeats with Some r -> r | None -> Primitives.ceil_log2 n + 4 in
  let dec = default_dec ?dec ~seed g ~metrics in
  let skeleton = Digraph.skeleton g in
  let c1 = Stateful.count ~limit:1 in
  let trials = ref 0 in
  let best = ref inf in
  let cdl_cost = ref None in
  let measure_cdl_cost labels_fn =
    match !cdl_cost with
    | Some c -> c
    | None ->
        let sub = Metrics.create () in
        ignore (Cdl.build ~dec ~seed (Digraph.with_labels g labels_fn) c1 ~metrics:sub);
        let c = Metrics.rounds sub in
        Metrics.add metrics ~label:"girth/cdl" c;
        cdl_cost := Some c;
        c
  in
  (match mode with
  | `PerEdge ->
      (* derandomized: label one edge at a time (m exact trials) *)
      let cost = measure_cdl_cost (fun _ -> 0) in
      Array.iter
        (fun e ->
          incr trials;
          best := min_exact_count1 g ~labeled:(fun id -> id = e.Digraph.id) ~bound:!best)
        (Digraph.edges g);
      Metrics.add metrics ~label:"girth/trials" ((m - 1) * cost)
  | (`Charged | `Faithful) as rmode ->
      let rng = Random.State.make [| seed; n; 0x91f7 |] in
      let scales =
        let rec go acc c = if c > max 2 m then List.rev acc else go (c :: acc) (2 * c) in
        go [] 1
      in
      List.iter
        (fun c_hat ->
          for _ = 1 to repeats do
            incr trials;
            let lbl = Array.make (max 1 m) 0 in
            Array.iteri
              (fun i _ ->
                if Random.State.float rng 1.0 < 1.0 /. (3.0 *. float_of_int c_hat) then
                  lbl.(i) <- 1)
              lbl;
            let labels_fn e = lbl.(e.Digraph.id) in
            let v =
              match rmode with
              | `Faithful ->
                  let cdl = Cdl.build ~dec ~seed (Digraph.with_labels g labels_fn) c1 ~metrics in
                  let q1 = Stateful.state_index_count c1 1 in
                  let per_node =
                    Array.init n (fun u -> Cdl.self_distance cdl ~q:q1 u)
                  in
                  aggregate_min ?faults ?reliable skeleton per_node ~metrics
              | `Charged ->
                  let cost = measure_cdl_cost labels_fn in
                  Metrics.add metrics ~label:"girth/trials" cost;
                  min_exact_count1 g ~labeled:(fun id -> lbl.(id) = 1) ~bound:!best
            in
            if v < !best then best := v
          done)
        scales);
  { girth = !best; trials = !trials }

let witness ?(seed = 0) g ~metrics =
  let r =
    if Digraph.directed g then directed ~seed g ~metrics
    else undirected ~mode:`PerEdge ~seed g ~metrics
  in
  if r.girth >= inf then None
  else begin
    (* find a minimizing edge and the closing path that avoids it *)
    let best = ref None in
    Array.iter
      (fun e ->
        if !best = None then
          if e.Digraph.src = e.Digraph.dst then begin
            if e.Digraph.weight = r.girth then best := Some [ e.Digraph.id ]
          end
          else begin
            let without =
              Digraph.create_labeled ~directed:(Digraph.directed g) (Digraph.n g)
                (Array.to_list (Digraph.edges g)
                |> List.filter_map (fun e' ->
                       if (not (Digraph.directed g)) && e'.Digraph.id = e.Digraph.id
                       then None
                       else
                         Some
                           (e'.Digraph.src, e'.Digraph.dst, e'.Digraph.weight,
                            e'.Digraph.id)))
            in
            let dist, pred = Shortest_path.dijkstra_tree without e.Digraph.dst in
            if
              dist.(e.Digraph.src) < inf
              && dist.(e.Digraph.src) + e.Digraph.weight = r.girth
            then begin
              let back =
                Shortest_path.path_of_tree without pred e.Digraph.src
                |> List.map (fun ei -> (Digraph.edge without ei).Digraph.label)
              in
              best := Some (e.Digraph.id :: back)
            end
          end)
      (Digraph.edges g);
    match !best with
    | Some cycle ->
        let d = Traversal.diameter (Digraph.skeleton g) in
        Metrics.add metrics ~label:"girth/witness" (d + List.length cycle);
        Some (r.girth, cycle)
    | None -> None
  end
