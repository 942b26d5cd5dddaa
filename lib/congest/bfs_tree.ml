module Digraph = Repro_graph.Digraph

type tree = { root : int; parent : int array; dist : int array; depth : int }

type state = { d : int; par : int; pending : bool }

module Word = struct
  type t = int

  let words _ = 1
end

module E = Engine.Make (Word)
module T = Transport.Make (Word)
module D = Detector.Make (Word)

let inf = Digraph.inf

let flood_init ~root v =
  if v = root then { d = 0; par = root; pending = true }
  else { d = inf; par = -1; pending = false }

(* All offers for a given BFS level arrive in the same round, so taking
   the smallest (distance, sender) pair in the inbox is deterministic. *)
let flood_step neighbors ~node st inbox =
  let st =
    List.fold_left
      (fun st (sender, sender_d) ->
        let cand = sender_d + 1 in
        if cand < st.d || (cand = st.d && sender < st.par) then
          { d = cand; par = sender; pending = true }
        else st)
      st inbox
  in
  if st.pending then
    ( { st with pending = false },
      Array.to_list (Array.map (fun u -> (u, st.d)) neighbors.(node)) )
  else (st, [])

let tree_of_states ~root states =
  let parent = Array.map (fun st -> st.par) states in
  let dist = Array.map (fun st -> st.d) states in
  let depth = Array.fold_left (fun acc d -> if d < inf && d > acc then d else acc) 0 dist in
  { root; parent; dist; depth }

let build ?faults ?(reliable = false) ?recovery skeleton ~root ~metrics =
  let n = Digraph.n skeleton in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let init = flood_init ~root in
  let step ~round:_ ~node st inbox = flood_step neighbors ~node st inbox in
  let states =
    match recovery with
    | Some { Recovery.checkpoint_every } ->
        (* crash-amnesia survival: the flood is announcement-monotone, so
           it satisfies the RECOVERABLE contract — a restored node
           re-offers its checkpointed distance (pending = true) and
           neighbors resync theirs *)
        let module R = Recovery.Make (struct
          module Msg = Word

          type st = state

          let init = init
          let step = step
          let active st = st.pending
          let snapshot st = [| st.d; st.par |]

          let restore ~node:_ snap =
            { d = snap.(0); par = snap.(1); pending = snap.(0) < inf }

          let resync st = if st.d < inf then Some st.d else None
        end) in
        R.run skeleton ?faults ~checkpoint_every ~metrics ~label:"bfs-tree" ()
    | None ->
        if reliable then
          T.run skeleton ?faults ~init ~step ~active:(fun st -> st.pending) ~metrics
            ~label:"bfs-tree" ()
        else
          E.run skeleton ?faults ~init ~step ~active:(fun st -> st.pending) ~metrics
            ~label:"bfs-tree" ()
  in
  tree_of_states ~root states

(* The flood is self-terminating — a node that never hears an offer
   simply stays at distance inf — so it needs nothing from the suspect
   list; the detector rides along to certify which part of the graph
   the tree actually covers. *)
let build_certified ?faults ?jitter_seed ?period ?timeout ?max_retries skeleton ~root ~metrics =
  let n = Digraph.n skeleton in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let result =
    D.run skeleton ?faults ?jitter_seed ?period ?timeout ?max_retries ~init:(flood_init ~root)
      ~step:(fun ~round:_ ~node ~suspected:_ st inbox -> flood_step neighbors ~node st inbox)
      ~active:(fun st -> st.pending)
      ~metrics ~label:"bfs-tree" ()
  in
  (tree_of_states ~root result.D.states, D.verdict result skeleton ~root)
