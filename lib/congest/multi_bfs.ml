module Digraph = Repro_graph.Digraph

type result = { dist : int array array; rounds : int }

type state = {
  dists : int array;  (* per instance *)
  queues : (int, (int * int) Queue.t) Hashtbl.t;  (* per neighbor *)
  delayed : (int * int * int) list;  (* (start round, instance, dist 0) for roots *)
}

module E = Engine.Make (struct
  type t = int * int

  let words _ = 2
end)

let run skeleton ~roots ?(seed = 0) ~metrics () =
  let n = Digraph.n skeleton in
  let k = List.length roots in
  let rng = Random.State.make [| seed; n; k; 0x5ced |] in
  let delays = List.map (fun _ -> Random.State.int rng (max 1 k)) roots in
  let neighbors = Array.init n (Digraph.neighbors skeleton) in
  let inf = Digraph.inf in
  let init v =
    let delayed =
      List.concat
        (List.mapi
           (fun i (r, delay) -> if r = v then [ (delay, i, 0) ] else [])
           (List.combine roots delays))
    in
    { dists = Array.make k inf; queues = Hashtbl.create 4; delayed }
  in
  let announce st node i d =
    Array.iter
      (fun u ->
        let q =
          match Hashtbl.find_opt st.queues u with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add st.queues u q;
              q
        in
        Queue.add (i, d) q)
      neighbors.(node)
  in
  let step ~round ~node st inbox =
    (* relax received announcements *)
    List.iter
      (fun (_, (i, d)) ->
        if d + 1 < st.dists.(i) then begin
          st.dists.(i) <- d + 1;
          announce st node i (d + 1)
        end)
      inbox;
    (* root instances wake up at their delayed start *)
    List.iter
      (fun (start, i, d) ->
        if start = round && d < st.dists.(i) then begin
          st.dists.(i) <- d;
          announce st node i d
        end)
      st.delayed;
    (* one message per neighbor per round, in ascending neighbor order so
       the adversary's RNG consumption is schedule-independent *)
    let outbox = ref [] in
    Array.iter
      (fun u ->
        match Hashtbl.find_opt st.queues u with
        | Some q when not (Queue.is_empty q) -> outbox := (u, Queue.pop q) :: !outbox
        | _ -> ())
      neighbors.(node);
    (st, List.rev !outbox)
  in
  let active st =
    Det_tbl.exists (fun _ q -> not (Queue.is_empty q)) st.queues
    || st.delayed <> []
       && List.exists (fun (_, i, _) -> st.dists.(i) > 0) st.delayed
  in
  let before = Metrics.rounds metrics in
  let states =
    E.run skeleton ~init ~step ~active ~metrics ~label:"multi-bfs" ()
  in
  let rounds = Metrics.rounds metrics - before in
  { dist = Array.init k (fun i -> Array.init n (fun v -> states.(v).dists.(i))); rounds }
