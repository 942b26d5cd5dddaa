module Digraph = Repro_graph.Digraph

type state = { dist : int array; queue : (int * int) list; queue_back : (int * int) list }

module E = Engine.Make (struct
  type t = int * int

  let words _ = 2
end)

let pop st =
  match st.queue with
  | item :: rest -> Some (item, { st with queue = rest })
  | [] -> (
      match List.rev st.queue_back with
      | item :: rest -> Some (item, { st with queue = rest; queue_back = [] })
      | [] -> None)

let push st item = { st with queue_back = item :: st.queue_back }

let hop_distances skeleton ~metrics =
  let n = Digraph.n skeleton in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let inf = Digraph.inf in
  let step ~round:_ ~node st inbox =
    let st =
      List.fold_left
        (fun st (_, (src, d)) ->
          let nd = d + 1 in
          if nd < st.dist.(src) then begin
            st.dist.(src) <- nd;
            push st (src, nd)
          end
          else st)
        st inbox
    in
    match pop st with
    | Some (item, st) ->
        (st, Array.to_list (Array.map (fun u -> (u, item)) neighbors.(node)))
    | None -> (st, [])
  in
  let states =
    E.run skeleton
      ~init:(fun v ->
        let dist = Array.make n inf in
        dist.(v) <- 0;
        { dist; queue = [ (v, 0) ]; queue_back = [] })
      ~step
      ~active:(fun st -> st.queue <> [] || st.queue_back <> [])
      ~metrics ~label:"apsp" ()
  in
  Array.map (fun st -> st.dist) states

let diameter skeleton ~metrics =
  let dists = hop_distances skeleton ~metrics in
  let ecc = Array.map (fun row -> Array.fold_left max 0 row) dists in
  let tree = Bfs_tree.build skeleton ~root:0 ~metrics in
  Broadcast.convergecast tree ~op:max ~values:ecc ~metrics

let diameter_two_approx skeleton ~metrics =
  let tree = Bfs_tree.build skeleton ~root:0 ~metrics in
  (* the eccentricity of the root is the tree depth; aggregate it so every
     node learns the estimate *)
  ignore (Broadcast.convergecast tree ~op:max ~values:tree.Bfs_tree.dist ~metrics);
  tree.Bfs_tree.depth
