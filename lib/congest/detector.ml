module Digraph = Repro_graph.Digraph

type verdict =
  | Complete
  | Partial of { reachable : bool array; suspected : (int * int) list }

let verdict_of_suspects skeleton ~root suspects =
  let n = Digraph.n skeleton in
  if Array.for_all (fun l -> l = []) suspects then Complete
  else begin
    let suspected_by v u = List.mem u suspects.(v) in
    (* certified reachable component: BFS from the root over links
       neither endpoint suspects — a link with a suspicious endpoint
       may be partitioned, so nothing beyond it is certified *)
    let reachable = Array.make n false in
    let q = Queue.create () in
    reachable.(root) <- true;
    Queue.add root q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Array.iter
        (fun u ->
          if (not reachable.(u)) && (not (suspected_by v u)) && not (suspected_by u v)
          then begin
            reachable.(u) <- true;
            Queue.add u q
          end)
        (Digraph.neighbors skeleton v)
    done;
    let suspected =
      List.concat
        (List.mapi
           (fun v l -> List.map (fun u -> (v, u)) (List.sort Int.compare l))
           (Array.to_list suspects))
    in
    Partial { reachable; suspected }
  end

let oracle ?faults ?(async = false) skeleton ~root =
  let n = Digraph.n skeleton in
  let severed, down =
    match faults with
    | None -> ((fun ~src:_ ~dst:_ -> false), fun _ -> false)
    | Some f ->
        ( (fun ~src ~dst -> Fault.severed f ~src ~dst),
          fun v ->
            Fault.eventually_down f v
            (* under the asynchronous executor an unbounded stall is a
               crash-stop: the node eventually goes silent forever *)
            || (async && Fault.eventually_stalled f v) )
  in
  let reachable = Array.make n false in
  if not (down root) then begin
    let q = Queue.create () in
    reachable.(root) <- true;
    Queue.add root q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Array.iter
        (fun u ->
          if (not reachable.(u)) && (not (down u)) && not (severed ~src:v ~dst:u)
          then begin
            reachable.(u) <- true;
            Queue.add u q
          end)
        (Digraph.neighbors skeleton v)
    done
  end;
  reachable

let pp_verdict fmt = function
  | Complete -> Format.pp_print_string fmt "complete"
  | Partial { reachable; suspected } ->
      let live = Array.fold_left (fun k r -> if r then k + 1 else k) 0 reachable in
      Format.fprintf fmt "partial (%d/%d reachable, %d suspicion(s))" live
        (Array.length reachable) (List.length suspected)

module Make (M : Engine.MSG) = struct
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  (* heartbeats share the links with user data; a Beat or Pong is pure
     header (1 word), a Data message costs its payload plus the 1-word
     tag. A Pong is a stood-down node answering a Beat: it proves the
     link live without triggering a reply of its own, so two quiescent
     nodes can never keep each other awake *)
  module Beat_msg = struct
    type t = Data of M.t | Beat | Pong

    let words = function Beat | Pong -> 1 | Data m -> 1 + M.words m
  end

  module T = Transport.Make (Beat_msg)

  (* A node's record, built once per boot and updated in place by each
     step. Its arrays are aligned with the sorted [nbrs]:
     [Engine.neighbor_index] finds a neighbor's slot. *)
  type 'st node = {
    mutable user : 'st;
    nbrs : int array;
    last_heard : int array;  (* last round anything arrived *)
    suspect : bool array;
    suspected : int -> bool;  (* the user's view of [suspect], built once per boot *)
    queued : int array;  (* last round user data was queued to the neighbor *)
    beat_heard : int array;  (* last round a [Beat] arrived from the neighbor *)
    mutable watch : int;  (* rounds of detector service left before standing down *)
    mutable next_beat : int;
  }

  type 'st result = { states : 'st array; suspects : int list array }

  let run skeleton ~init ~step ~active ?faults ?jitter_seed ?max_retries ?(period = 4)
      ?timeout ~metrics ~label () =
    if period < 2 then invalid_arg "Detector.run: period must be >= 2";
    let timeout = match timeout with Some t -> t | None -> 3 * period in
    if timeout < period + 2 then
      invalid_arg "Detector.run: timeout must exceed period + the 2-round ack latency";
    (* how long a node keeps beating and suspecting after its own user
       layer (and its neighborhood's traffic) goes quiet: long enough
       for a peer whose watch was re-armed a little later to time us
       out or hear our final beats, short enough to quiesce *)
    let watch0 = timeout + (2 * period) in
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    (* one sorted neighbor array per node for the whole run, shared by
       every boot of that node *)
    let neighbors = Array.init (Digraph.n skeleton) (Digraph.neighbors skeleton) in
    let fresh_node ~round v booted =
      let nbrs = neighbors.(v) in
      let deg = Array.length nbrs in
      let suspect = Array.make deg false in
      let suspected u =
        let i = Engine.neighbor_index nbrs u in
        if i < 0 then
          invalid_arg (Printf.sprintf "Detector(%s): %d is not a neighbor of %d" label u v);
        suspect.(i)
      in
      {
        user = booted;
        nbrs;
        last_heard = Array.make deg round;
        suspect;
        suspected;
        queued = Array.make deg (-1);
        beat_heard = Array.make deg (-1);
        watch = watch0;
        next_beat = round;
      }
    in
    let wrap_init v = fresh_node ~round:0 v (init v) in
    let wrap_restart ~round ~node = fresh_node ~round node (init node) in
    (* 1. anything that arrives proves the link live: refresh the peer's
       deadline, clear a standing suspicion, stamp a [Beat]; returns the
       user data in inbox order *)
    let rec absorb st v round = function
      | [] -> []
      | (u, bm) :: rest -> (
          let i = Engine.neighbor_index st.nbrs u in
          st.last_heard.(i) <- round;
          if st.suspect.(i) then begin
            st.suspect.(i) <- false;
            if tracing then
              Repro_obs.Sink.emit sink (Repro_obs.Event.Clear { round; node = v; peer = u })
          end;
          match bm with
          | Beat_msg.Data m -> (u, m) :: absorb st v round rest
          | Beat_msg.Beat ->
              st.beat_heard.(i) <- round;
              absorb st v round rest
          | Beat_msg.Pong -> absorb st v round rest)
    in
    (* 3. while on watch, time out silent neighbors, in ascending order *)
    let rec time_out st v round i =
      if i < Array.length st.nbrs then begin
        if (not st.suspect.(i)) && round - st.last_heard.(i) >= timeout then begin
          st.suspect.(i) <- true;
          Metrics.add_count metrics Suspicions 1;
          if tracing then
            Repro_obs.Sink.emit sink
              (Repro_obs.Event.Suspect { round; node = v; peer = st.nbrs.(i) })
        end;
        time_out st v round (i + 1)
      end
    in
    (* user data rides as [Data] (and proves liveness by itself); a
       send to a non-neighbor is left for the transport to reject *)
    let rec wrap_data st round = function
      | [] -> []
      | (u, m) :: rest ->
          let i = Engine.neighbor_index st.nbrs u in
          if i >= 0 then st.queued.(i) <- round;
          (u, Beat_msg.Data m) :: wrap_data st round rest
    in
    (* a [Beat] to every neighbor not already getting data, ascending,
       consed onto [out] from the highest position down *)
    let rec beats st round i out =
      if i < 0 then out
      else
        beats st round (i - 1)
          (if st.queued.(i) = round then out else (st.nbrs.(i), Beat_msg.Beat) :: out)
    in
    (* a [Pong] to every neighbor that beat this round and gets no data *)
    let rec pongs st round i out =
      if i < 0 then out
      else
        pongs st round (i - 1)
          (if st.beat_heard.(i) = round && st.queued.(i) <> round then
             (st.nbrs.(i), Beat_msg.Pong) :: out
           else out)
    in
    let wrap_step ~round ~node:v st inbox =
      let user_inbox = absorb st v round inbox in
      let stepped, user_out = step ~round ~node:v ~suspected:st.suspected st.user user_inbox in
      st.user <- stepped;
      (* 2. the watch: user-level activity re-arms it, silence runs it
         down. Beats deliberately do NOT re-arm it (mutual heartbeating
         would keep the whole system alive forever). *)
      if user_inbox <> [] || user_out <> [] || active stepped then st.watch <- watch0
      else st.watch <- st.watch - 1;
      if st.watch > 0 then time_out st v round 0;
      (* 4. outbox: every [period] rounds, neighbors not already getting
         data receive a [Beat]. A node whose watch has expired no longer
         originates beats, but still answers incoming ones with a [Pong]
         — otherwise a neighbor whose user layer stays busy [timeout]
         rounds longer would falsely (and permanently, since we never
         speak again) suspect this perfectly live link *)
      let beat_due = st.watch > 0 && round >= st.next_beat in
      if beat_due then st.next_beat <- round + period;
      let out = wrap_data st round user_out in
      let last = Array.length st.nbrs - 1 in
      let out =
        if beat_due then beats st round last out
        else if st.watch <= 0 then pongs st round last out
        else out
      in
      (st, out)
    in
    let wrap_active st = active st.user || st.watch > 0 in
    let states =
      T.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart ?jitter_seed ?max_retries
        ~max_words:(Engine.default_max_words + 1) ~metrics ~label ()
    in
    {
      states = Array.map (fun st -> st.user) states;
      suspects =
        Array.map
          (fun st ->
            let out = ref [] in
            Array.iteri (fun i u -> if st.suspect.(i) then out := u :: !out) st.nbrs;
            List.rev !out)
          states;
    }

  let verdict result skeleton ~root = verdict_of_suspects skeleton ~root result.suspects
end
