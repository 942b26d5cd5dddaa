module Digraph = Repro_graph.Digraph

module Word = struct
  type t = int

  let words _ = 1
end

module E = Engine.Make (Word)
module T = Transport.Make (Word)

(* dispatch an execution to the raw engine or the reliable transport *)
let run_via ~reliable ?faults skeleton ~init ~step ~active ~metrics ~label =
  if reliable then T.run skeleton ?faults ~init ~step ~active ~metrics ~label ()
  else E.run skeleton ?faults ~init ~step ~active ~metrics ~label ()

type flood_state = { value : int option; pending : bool }

let flood ?faults ?(reliable = false) ?recovery skeleton ~root ~value ~metrics =
  let n = Digraph.n skeleton in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let step ~round:_ ~node st inbox =
    let st =
      match (st.value, inbox) with
      | None, (_, v) :: _ -> { value = Some v; pending = true }
      | _ -> st
    in
    if st.pending then
      ( { st with pending = false },
        match st.value with
        | Some v -> Array.to_list (Array.map (fun u -> (u, v)) neighbors.(node))
        | None -> [] )
    else (st, [])
  in
  let init v =
    if v = root then { value = Some value; pending = true }
    else { value = None; pending = false }
  in
  let active st = st.pending in
  let states =
    match recovery with
    | Some { Recovery.checkpoint_every } ->
        (* value-once flooding is trivially announcement-monotone *)
        let module R = Recovery.Make (struct
          module Msg = Word

          type st = flood_state

          let init = init
          let step = step
          let active = active
          let snapshot st = match st.value with Some v -> [| 1; v |] | None -> [| 0 |]

          let restore ~node:_ snap =
            if snap.(0) = 1 then { value = Some snap.(1); pending = true }
            else { value = None; pending = false }

          let resync st = st.value
        end) in
        R.run skeleton ?faults ~checkpoint_every ~metrics ~label:"flood" ()
    | None -> run_via ~reliable ?faults skeleton ~init ~step ~active ~metrics ~label:"flood"
  in
  Array.map (fun st -> match st.value with Some v -> v | None -> Digraph.inf) states

type cc_state = { acc : int; waiting : int; sent : bool }

let convergecast ?faults ?(reliable = false) tree ~op ~values ~metrics =
  let n = Array.length tree.Bfs_tree.parent in
  let child_count = Array.make n 0 in
  Array.iteri
    (fun u p -> if p >= 0 && u <> p then child_count.(p) <- child_count.(p) + 1)
    tree.Bfs_tree.parent;
  (* The skeleton here is the tree itself: build it as a graph. *)
  let tree_edges = ref [] in
  Array.iteri
    (fun u p -> if p >= 0 && u <> p then tree_edges := (u, p, 1) :: !tree_edges)
    tree.Bfs_tree.parent;
  let tree_graph = Digraph.create ~directed:false n !tree_edges in
  let step ~round:_ ~node st inbox =
    let st =
      List.fold_left
        (fun st (_, v) -> { st with acc = op st.acc v; waiting = st.waiting - 1 })
        st inbox
    in
    if st.waiting = 0 && not st.sent then
      (* a node with no parent (possible when the tree was built over
         faulty links) has nowhere to report; it keeps its local result *)
      if node = tree.Bfs_tree.root || tree.Bfs_tree.parent.(node) < 0 then
        ({ st with sent = true }, [])
      else ({ st with sent = true }, [ (tree.Bfs_tree.parent.(node), st.acc) ])
    else (st, [])
  in
  let states =
    run_via ~reliable ?faults tree_graph
      ~init:(fun v -> { acc = values.(v); waiting = child_count.(v); sent = false })
      ~step
      ~active:(fun st -> st.waiting = 0 && not st.sent)
      ~metrics ~label:"convergecast"
  in
  states.(tree.Bfs_tree.root).acc

(* A stream node's buffer is both its received log and its forwarding
   queue: [got.(0 .. len - 1)] is what arrived since the node's last
   boot, in arrival order, and [got.(next .. len - 1)] is what it has
   yet to forward. Each step updates the record in place. *)
type stream_state = { mutable got : int array; mutable len : int; mutable next : int }

(* a duplicated copy overflows the |items| slots: double the buffer,
   copying element-wise (Labeling's [copy_prefix] says why not blit) *)
let push st v =
  if st.len = Array.length st.got then begin
    let bigger = Array.make (max 1 (2 * st.len)) 0 in
    for i = 0 to st.len - 1 do
      bigger.(i) <- st.got.(i)
    done;
    st.got <- bigger
  end;
  st.got.(st.len) <- v;
  st.len <- st.len + 1

let rec absorb st = function
  | [] -> ()
  | (_, v) :: rest ->
      push st v;
      absorb st rest

(* [(c, v)] for every child [c], in [children] order: the outbox order
   fixes the order of the adversary's fate draws *)
let rec fan_out v = function [] -> [] | c :: rest -> (c, v) :: fan_out v rest

let stream_down ?faults ?(reliable = false) tree ~items ~metrics =
  let n = Array.length tree.Bfs_tree.parent in
  let children = Array.make n [] in
  Array.iteri
    (fun u p -> if p >= 0 && u <> p then children.(p) <- u :: children.(p))
    tree.Bfs_tree.parent;
  let tree_edges = ref [] in
  Array.iteri
    (fun u p -> if p >= 0 && u <> p then tree_edges := (u, p, 1) :: !tree_edges)
    tree.Bfs_tree.parent;
  let tree_graph = Digraph.create ~directed:false n !tree_edges in
  let step ~round:_ ~node st inbox =
    absorb st inbox;
    if st.next < st.len then begin
      let v = st.got.(st.next) in
      st.next <- st.next + 1;
      (st, fan_out v children.(node))
    end
    else (st, [])
  in
  let k = Array.length items in
  let states =
    run_via ~reliable ?faults tree_graph
      ~init:(fun v ->
        if v = tree.Bfs_tree.root then { got = Array.copy items; len = k; next = 0 }
        else { got = Array.make k 0; len = 0; next = 0 })
      ~step
      ~active:(fun st -> st.next < st.len)
      ~metrics ~label:"stream"
  in
  Array.map
    (fun st -> if st.len = Array.length st.got then st.got else Array.sub st.got 0 st.len)
    states
