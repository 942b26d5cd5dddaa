module Digraph = Repro_graph.Digraph

type state = { dist : int; pending : bool }

module Word = struct
  type t = int

  let words _ = 1
end

module E = Engine.Make (Word)
module T = Transport.Make (Word)
module D = Detector.Make (Word)

(* weight of the lightest directed edge v -> u, for relaxation on receive *)
let lightest_in g =
  let w_in = Hashtbl.create (Digraph.m g) in
  Array.iter
    (fun e ->
      let record src dst =
        let key = (src, dst) in
        match Hashtbl.find_opt w_in key with
        | Some w when w <= e.Digraph.weight -> ()
        | _ -> Hashtbl.replace w_in key e.Digraph.weight
      in
      record e.Digraph.src e.Digraph.dst;
      if not (Digraph.directed g) then record e.Digraph.dst e.Digraph.src)
    (Digraph.edges g);
  w_in

let relax_step w_in neighbors ~node st inbox =
  let st =
    List.fold_left
      (fun st (sender, sender_dist) ->
        match Hashtbl.find_opt w_in (sender, node) with
        | Some w when sender_dist + w < st.dist ->
            { dist = sender_dist + w; pending = true }
        | _ -> st)
      st inbox
  in
  if st.pending then
    ( { st with pending = false },
      Array.to_list (Array.map (fun u -> (u, st.dist)) neighbors.(node)) )
  else (st, [])

let relax_init ~source v =
  if v = source then { dist = 0; pending = true }
  else { dist = Digraph.inf; pending = false }

let run ?faults ?(reliable = false) ?recovery g ~source ~metrics =
  let n = Digraph.n g in
  let skeleton = Digraph.skeleton g in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let w_in = lightest_in g in
  let step ~round:_ ~node st inbox = relax_step w_in neighbors ~node st inbox in
  let init = relax_init ~source in
  let active st = st.pending in
  let states =
    match recovery with
    | Some { Recovery.checkpoint_every } ->
        (* relaxation is idempotent and announcements supersede, so the
           RECOVERABLE contract holds; a restored node re-floods its
           checkpointed tentative distance *)
        let module R = Recovery.Make (struct
          module Msg = Word

          type st = state

          let init = init
          let step = step
          let active = active
          let snapshot st = [| st.dist |]

          let restore ~node:_ snap =
            { dist = snap.(0); pending = snap.(0) < Digraph.inf }

          let resync st = if st.dist < Digraph.inf then Some st.dist else None
        end) in
        R.run skeleton ?faults ~checkpoint_every ~metrics ~label:"bellman-ford" ()
    | None ->
        if reliable then
          T.run skeleton ?faults ~init ~step ~active ~metrics ~label:"bellman-ford" ()
        else E.run skeleton ?faults ~init ~step ~active ~metrics ~label:"bellman-ford" ()
  in
  Array.map (fun st -> st.dist) states

(* Like the BFS flood, relaxation is self-terminating; the detector
   rides along to certify on which component the distances are exact. *)
let run_certified ?faults ?jitter_seed ?period ?timeout ?max_retries g ~source ~metrics =
  let n = Digraph.n g in
  let skeleton = Digraph.skeleton g in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let w_in = lightest_in g in
  let result =
    D.run skeleton ?faults ?jitter_seed ?period ?timeout ?max_retries ~init:(relax_init ~source)
      ~step:(fun ~round:_ ~node ~suspected:_ st inbox ->
        relax_step w_in neighbors ~node st inbox)
      ~active:(fun st -> st.pending)
      ~metrics ~label:"bellman-ford" ()
  in
  ( Array.map (fun st -> st.dist) result.D.states,
    D.verdict result skeleton ~root:source )
