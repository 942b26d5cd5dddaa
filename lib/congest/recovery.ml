module Digraph = Repro_graph.Digraph

type config = { checkpoint_every : int }

module type RECOVERABLE = sig
  module Msg : Engine.MSG

  type st

  val init : int -> st
  val step : round:int -> node:int -> st -> (int * Msg.t) list -> st * (int * Msg.t) list
  val active : st -> bool
  val snapshot : st -> int array
  val restore : node:int -> int array -> st
  val resync : st -> Msg.t option
end

module Make (P : RECOVERABLE) = struct
  (* Recovery control traffic is multiplexed with user data on the same
     links: a restarted node floods Hello, neighbors answer Resync with
     their current announcement. Tags are O(1) bits and ride free; the
     payload is measured as the user message it carries. *)
  module X = struct
    type t = Data of P.Msg.t | Hello | Resync of P.Msg.t option

    let words = function
      | Data m | Resync (Some m) -> P.Msg.words m
      | Hello | Resync None -> 1
  end

  module T = Transport.Make (X)

  (* A node's record, built once per boot and updated in place by each
     step. Its arrays are aligned with the sorted [nbrs]:
     [Engine.neighbor_index] finds a neighbor's slot. *)
  type rst = {
    mutable user : P.st;
    mutable hello : bool;  (* just restarted: flood Hello next step *)
    mutable resyncing : bool;  (* restart handshake not yet complete *)
    nbrs : int array;
    (* per-neighbor send slot: a later announcement supersedes an earlier
       undelivered one (the RECOVERABLE contract), so one slot suffices *)
    data : P.Msg.t option array;
    resync_owed : bool array;  (* the neighbor sent Hello: answer with Resync *)
    awaited : bool array;  (* not heard from since restart *)
    mutable awaiting : int;  (* how many [awaited] are set *)
  }

  (* a slot still holds something to send *)
  let rec pending st i =
    i < Array.length st.nbrs
    && (st.resync_owed.(i) || Option.is_some st.data.(i) || pending st (i + 1))

  let run skeleton ?faults ?(checkpoint_every = 0) ~metrics ~label () =
    if checkpoint_every < 0 then invalid_arg "Recovery.run: negative checkpoint interval";
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let n = Digraph.n skeleton in
    (* simulated per-node stable storage: survives amnesia restarts
       because it lives outside the engine's (volatile) node states *)
    let stable = Array.make n None in
    (* one sorted neighbor array per node for the whole run, shared by
       every boot of that node *)
    let neighbors = Array.init n (Digraph.neighbors skeleton) in
    let fresh_rst ~hello v booted =
      let nbrs = neighbors.(v) in
      let deg = Array.length nbrs in
      {
        user = booted;
        hello;
        resyncing = hello;
        nbrs;
        data = Array.make deg None;
        resync_owed = Array.make deg false;
        awaited = Array.make deg hello;
        awaiting = (if hello then deg else 0);
      }
    in
    let wrap_init v = fresh_rst ~hello:false v (P.init v) in
    let wrap_restart ~round:_ ~node =
      Metrics.add_count metrics Recoveries 1;
      let restored =
        match stable.(node) with
        | Some snap -> P.restore ~node snap
        | None -> P.init node
      in
      fresh_rst ~hello:true node restored
    in
    (* absorb: user payloads go to the user inbox (consed onto [acc]); a
       Hello makes us owe that neighbor a Resync; any payload-bearing
       message from an awaited neighbor completes that part of the
       handshake *)
    let rec absorb st acc = function
      | [] -> acc
      | (u, x) :: rest ->
          let i = Engine.neighbor_index st.nbrs u in
          (match x with
          | X.Hello -> st.resync_owed.(i) <- true
          | X.Data _ | X.Resync _ ->
              if st.awaited.(i) then begin
                st.awaited.(i) <- false;
                st.awaiting <- st.awaiting - 1
              end);
          let acc =
            match x with
            | X.Data m | X.Resync (Some m) -> (u, m) :: acc
            | X.Hello | X.Resync None -> acc
          in
          absorb st acc rest
    in
    (* the user's outbox fills its neighbors' send slots *)
    let rec fill st round v = function
      | [] -> ()
      | (u, m) :: rest ->
          let i = Engine.neighbor_index st.nbrs u in
          if i < 0 then
            invalid_arg
              (Printf.sprintf "Recovery.run(%s): round %d: node %d sent to non-neighbor %d"
                 label round v u);
          st.data.(i) <- Some m;
          fill st round v rest
    in
    (* emit at most one message per neighbor, Hello > Resync > Data, in
       ascending neighbor order, consed onto [out]; a deferred slot
       drains on a later round *)
    let rec emit st i out =
      if i = Array.length st.nbrs then out
      else
        let u = st.nbrs.(i) in
        let out =
          if st.hello then (u, X.Hello) :: out
          else if st.resync_owed.(i) then begin
            st.resync_owed.(i) <- false;
            (u, X.Resync (P.resync st.user)) :: out
          end
          else
            match st.data.(i) with
            | Some m ->
                st.data.(i) <- None;
                (u, X.Data m) :: out
            | None -> out
        in
        emit st (i + 1) out
    in
    let wrap_step ~round ~node:v st inbox =
      let user_in = Engine.sort_inbox (absorb st [] inbox) in
      let stepped, user_out = P.step ~round ~node:v st.user user_in in
      st.user <- stepped;
      fill st round v user_out;
      if checkpoint_every > 0 && round > 0 && round mod checkpoint_every = 0 then begin
        let snap = P.snapshot stepped in
        stable.(v) <- Some snap;
        Metrics.add_count metrics Checkpoints 1;
        Metrics.add_count metrics Checkpoint_words (Array.length snap);
        if tracing then
          Repro_obs.Sink.emit sink
            (Repro_obs.Event.Checkpoint { round; node = v; words = Array.length snap })
      end;
      if st.awaiting > 0 then Metrics.add_count metrics Resync_rounds 1
      else if st.resyncing then begin
        (* the post-restart handshake just completed: every neighbor has
           been heard from since the reboot *)
        st.resyncing <- false;
        if tracing then
          Repro_obs.Sink.emit sink (Repro_obs.Event.Recovery_resync { round; node = v })
      end;
      let out = emit st 0 [] in
      st.hello <- false;
      (st, out)
    in
    let wrap_active st = P.active st.user || st.hello || pending st 0 in
    let states =
      T.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart ~metrics ~label ()
    in
    Array.map (fun st -> st.user) states
  [@@charge_site]
end
