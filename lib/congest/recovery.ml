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

  (* per-neighbor send slot: a later announcement supersedes an earlier
     undelivered one (the RECOVERABLE contract), so one slot suffices *)
  type cell = { mutable resync_owed : bool; mutable data : P.Msg.t option }

  type rst = {
    user : P.st;
    mutable hello : bool;  (* just restarted: flood Hello next step *)
    mutable resyncing : bool;  (* restart handshake not yet complete *)
    cells : (int, cell) Hashtbl.t;
    await : (int, unit) Hashtbl.t;  (* neighbors not heard from since restart *)
    nbrs : int array;
  }

  let run skeleton ?faults ?(checkpoint_every = 0) ?max_rounds ?max_words ~metrics
      ~label () =
    if checkpoint_every < 0 then invalid_arg "Recovery.run: negative checkpoint interval";
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let n = Digraph.n skeleton in
    (* simulated per-node stable storage: survives amnesia restarts
       because it lives outside the engine's (volatile) node states *)
    let stable = Array.make n None in
    let fresh_rst ~hello v user =
      let nbrs = Digraph.neighbors skeleton v in
      let cells = Hashtbl.create 8 in
      Array.iter (fun u -> Hashtbl.replace cells u { resync_owed = false; data = None }) nbrs;
      let await = Hashtbl.create 8 in
      if hello then Array.iter (fun u -> Hashtbl.replace await u ()) nbrs;
      { user; hello; resyncing = hello; cells; await; nbrs }
    in
    let wrap_init v = fresh_rst ~hello:false v (P.init v) in
    let wrap_restart ~round:_ ~node =
      Metrics.add_count metrics Recoveries 1;
      let user =
        match stable.(node) with
        | Some snap -> P.restore ~node snap
        | None -> P.init node
      in
      fresh_rst ~hello:true node user
    in
    let wrap_step ~round ~node:v st inbox =
      (* absorb: user payloads go to the user inbox; a Hello makes us owe
         that neighbor a Resync; any payload-bearing message from an
         awaited neighbor completes that part of the handshake *)
      let user_in = ref [] in
      List.iter
        (fun (u, x) ->
          (match x with
          | X.Data _ | X.Resync _ -> Hashtbl.remove st.await u
          | X.Hello -> ());
          match x with
          | X.Data m | X.Resync (Some m) -> user_in := (u, m) :: !user_in
          | X.Resync None -> ()
          | X.Hello -> (Hashtbl.find st.cells u).resync_owed <- true)
        inbox;
      let user_in = Engine.sort_inbox !user_in in
      let user, user_out = P.step ~round ~node:v st.user user_in in
      List.iter (fun (u, m) -> (Hashtbl.find st.cells u).data <- Some m) user_out;
      if checkpoint_every > 0 && round > 0 && round mod checkpoint_every = 0 then begin
        let snap = P.snapshot user in
        stable.(v) <- Some snap;
        Metrics.add_count metrics Checkpoints 1;
        Metrics.add_count metrics Checkpoint_words (Array.length snap);
        if tracing then
          Repro_obs.Sink.emit sink
            (Repro_obs.Event.Checkpoint { round; node = v; words = Array.length snap })
      end;
      let awaiting = Hashtbl.length st.await in
      if awaiting > 0 then Metrics.add_count metrics Resync_rounds 1
      else if st.resyncing then begin
        (* the post-restart handshake just completed: every neighbor has
           been heard from since the reboot *)
        st.resyncing <- false;
        if tracing then
          Repro_obs.Sink.emit sink (Repro_obs.Event.Recovery_resync { round; node = v })
      end;
      (* emit at most one message per neighbor, Hello > Resync > Data;
         a deferred slot drains on a later round *)
      let out = ref [] in
      Array.iter
        (fun u ->
          let c = Hashtbl.find st.cells u in
          if st.hello then out := (u, X.Hello) :: !out
          else if c.resync_owed then begin
            c.resync_owed <- false;
            out := (u, X.Resync (P.resync user)) :: !out
          end
          else
            match c.data with
            | Some m ->
                c.data <- None;
                out := (u, X.Data m) :: !out
            | None -> ())
        st.nbrs;
      st.hello <- false;
      ({ st with user }, !out)
    in
    let wrap_active st =
      P.active st.user || st.hello
      || Array.exists
           (fun u ->
             let c = Hashtbl.find st.cells u in
             c.resync_owed || c.data <> None)
           st.nbrs
    in
    let states =
      T.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart ?max_rounds ?max_words ~metrics ~label ()
    in
    Array.map (fun st -> st.user) states
  [@@charge_site]
end
