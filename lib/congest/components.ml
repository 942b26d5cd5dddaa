module Digraph = Repro_graph.Digraph

type state = { best : int; pending : bool; inside : bool }

module E = Engine.Make (struct
  type t = int

  let words _ = 1
end)

let flood_labels g ~mask ~metrics =
  let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
  let n = Digraph.n skeleton in
  let neighbors =
    Array.init n (fun v ->
        Array.of_list
          (List.filter (fun u -> mask.(u)) (Array.to_list (Digraph.neighbors skeleton v))))
  in
  let states =
    E.run skeleton
      ~init:(fun v -> { best = v; pending = mask.(v); inside = mask.(v) })
      ~step:(fun ~round:_ ~node st inbox ->
        if not st.inside then (st, [])
        else begin
          let st =
            List.fold_left
              (fun st (_, cand) ->
                if cand < st.best then { st with best = cand; pending = true } else st)
              st inbox
          in
          if st.pending then
            ( { st with pending = false },
              Array.to_list (Array.map (fun u -> (u, st.best)) neighbors.(node)) )
          else (st, [])
        end)
      ~active:(fun st -> st.pending)
      ~metrics ~label:"ccd-flood" ()
  in
  Array.map (fun st -> if st.inside then st.best else -1) states
