module Digraph = Repro_graph.Digraph

type state = { best : int; pending : bool }

module Word = struct
  type t = int

  let words _ = 1
end

module E = Engine.Make (Word)
module T = Transport.Make (Word)

let elect ?faults ?(reliable = false) skeleton ~metrics =
  let n = Digraph.n skeleton in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let step ~round:_ ~node st inbox =
    let st =
      List.fold_left
        (fun st (_, cand) -> if cand < st.best then { best = cand; pending = true } else st)
        st inbox
    in
    if st.pending then
      ( { st with pending = false },
        Array.to_list (Array.map (fun u -> (u, st.best)) neighbors.(node)) )
    else (st, [])
  in
  let init v = { best = v; pending = true } in
  let active st = st.pending in
  let states =
    if reliable then T.run skeleton ?faults ~init ~step ~active ~metrics ~label:"leader" ()
    else E.run skeleton ?faults ~init ~step ~active ~metrics ~label:"leader" ()
  in
  let leader = states.(0).best in
  Array.iter (fun st -> assert (st.best = leader)) states;
  leader
