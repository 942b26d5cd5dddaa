module Digraph = Repro_graph.Digraph

let default_max_words = 4
let audit_enabled = ref false

(* Process-wide trace sink (same install pattern as [audit_enabled]):
   the engine and the layers above it (transport, recovery) emit
   through whatever sink is installed here, and never reference a
   concrete sink implementation. Emit sites guard on [.enabled] before
   constructing an event, so with the default null sink tracing
   allocates nothing and costs one branch per site. *)
let trace_sink = ref Repro_obs.Sink.null

exception
  Round_limit_exceeded of { label : string; rounds : int; active_nodes : int }

exception Audit_violation of { label : string; round : int; detail : string }

let () =
  Printexc.register_printer (function
    | Round_limit_exceeded { label; rounds; active_nodes } ->
        Some
          (Printf.sprintf
             "Engine.Round_limit_exceeded(%s): %d rounds elapsed, %d nodes still active"
             label rounds active_nodes)
    | Audit_violation { label; round; detail } ->
        Some
          (Printf.sprintf "Engine.Audit_violation(%s): round %d: %s" label round detail)
    | _ -> None)

module type MSG = sig
  type t

  val words : t -> int
end

(* [List.sort] allocates its local closures even on [[]], and every
   node-step of every layer orders an inbox; the reversal of a
   consed inbox costs only the reversed list *)
let rec strictly_descending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a > b && strictly_descending rest
  | _ -> true

let sort_inbox inbox =
  match inbox with
  | [] | [ _ ] -> inbox
  | _ ->
      if strictly_descending inbox then List.rev inbox
      else List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) inbox

let rec search nbrs u lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let w = nbrs.(mid) in
    if w = u then mid else if w < u then search nbrs u (mid + 1) hi else search nbrs u lo mid

let neighbor_index nbrs u = search nbrs u 0 (Array.length nbrs)

module Make (M : MSG) = struct
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  let run skeleton ~init ~step ~active ?faults ?on_restart ?corrupt
      ?(max_rounds = 10_000_000) ?(max_words = default_max_words) ~metrics ~label () =
    if Digraph.directed skeleton then
      invalid_arg "Engine.run: communication network must be undirected";
    let audit = !audit_enabled in
    let n = Digraph.n skeleton in
    (* sorted, so the receiver check is a binary search *)
    let neighbors = Array.init n (Digraph.neighbors skeleton) in
    let states = Array.init n init in
    (* double-buffered inboxes: both arrays live for the whole run and
       swap roles each round, so the loop never allocates an array *)
    let inboxes = ref (Array.make n []) in
    let next_inboxes = ref (Array.make n []) in
    let round = ref 0 in
    (* crash-amnesia restart: the node boots with no volatile memory, so
       its state is rebuilt from scratch — by default via [init], or via
       the [on_restart] hook so layered protocols (transport epochs,
       checkpoint recovery) can reconstruct themselves instead *)
    let restart_state =
      match on_restart with
      | Some f -> f
      | None -> fun ~round:_ ~node -> init node
    in
    let in_flight = ref false in
    (* copies held back by a delay fault: (deliver_round, dst, src, msg,
       words measured at send, send_round, corrupted in flight, physical
       arrival time — 0 on the identity schedule) *)
    let delayed = ref [] in
    let sink = !trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let emit e = Repro_obs.Sink.emit sink e in
    (match faults with Some f -> Fault.begin_run f | None -> ());
    if tracing then begin
      emit (Repro_obs.Event.Run_start { label; faulty = Option.is_some faults });
      (* static fault windows up front so replay can rebuild the profile *)
      match faults with
      | None -> ()
      | Some f -> List.iter emit (Fault.window_events f ~n)
    end;
    (* last observed up/down status per node, for crash/restart
       transition events (allocated only when tracing) *)
    let prev_down = Array.make (if tracing then n else 0) false in
    (* a node inside an unbounded stall window behaves like a
       crash-stop: it neither steps nor sends, copies addressed to it
       are dropped, and it is excluded from the liveness check. Only a
       profile with an unbounded stall can stall a node forever. *)
    let stalls =
      match faults with
      | Some f ->
          List.exists
            (fun (s : Fault.straggle) -> s.factor = 0 && s.s_until = None)
            (Fault.profile_of f).stragglers
      | None -> false
    in
    let down_at ~round v =
      match faults with
      | None -> false
      | Some f -> Fault.crashed f ~round v || (stalls && Fault.stalled_forever f ~round v)
    in
    let down v = down_at ~round:!round v in
    let link_down src dst =
      match faults with
      | None -> false
      | Some f -> Fault.link_down f ~round:!round ~src ~dst
    in
    (* per-link up/down transitions for Partition/Heal trace events;
       only maintained when tracing a profile that has partitions *)
    let partitioned =
      match faults with
      | Some f -> (Fault.profile_of f).partitions <> []
      | None -> false
    in
    let skeleton_edges =
      if tracing && partitioned then Digraph.edges skeleton else [||]
    in
    let prev_link_down = Array.make (Array.length skeleton_edges) false in
    let emit_link_transitions () =
      Array.iteri
        (fun i (e : Digraph.edge) ->
          let down = link_down e.Digraph.src e.Digraph.dst in
          if down <> prev_link_down.(i) then
            emit
              (if down then
                 Repro_obs.Event.Partition
                   { round = !round; src = e.Digraph.src; dst = e.Digraph.dst }
               else
                 Repro_obs.Event.Heal
                   { round = !round; src = e.Digraph.src; dst = e.Digraph.dst });
          prev_link_down.(i) <- down)
        skeleton_edges
    in
    let live_active v =
      active states.(v)
      && match faults with
         | None -> true
         | Some f ->
             (not (Fault.crash_stopped f ~round:!round v))
             && not (stalls && Fault.stalled_forever f ~round:!round v)
    in
    (* recursive scans instead of ref-counted loops: no per-call ref
       cells, so the quiescence check itself is allocation-free *)
    let rec count_active_from v acc =
      if v >= n then acc else count_active_from (v + 1) (if live_active v then acc + 1 else acc)
    in
    let count_active () = count_active_from 0 0 in
    let rec any_live_active v = v < n && (live_active v || any_live_active (v + 1)) in
    let continue () =
      !in_flight || !delayed <> []
      (* an in-progress amnesia outage keeps the run alive so the
         scheduled restart (and any recovery it triggers) executes
         instead of quiescing with the node's fate unresolved *)
      || (match faults with
         | Some f -> Fault.amnesia_in_progress f ~round:!round
         | None -> false)
      || any_live_active 0
    in
    (* the schedule, picked once: identity timing, or the α-synchronizer's
       virtual clock when the profile has a timing dimension or the
       async executor is forced *)
    let pulsed =
      let timing = match faults with Some f -> Fault.timing_active f | None -> false in
      if timing || !Async_engine.forced then
        Some (Async_engine.start faults ~neighbors ~down:down_at ~metrics ~sink)
      else None
    in
    (* ---- audit bookkeeping (only consulted when [audit] is true) ----
       The auditor keeps its own cumulative tallies, incremented at the
       model-decision sites, and cross-checks them each round against the
       amounts charged to [metrics] and against the number of copies still
       in flight. Drift between the two is an accounting bug. *)
    let a_sent = ref 0 (* accepted sends *)
    and a_words = ref 0 (* words across accepted sends *)
    and a_delivered = ref 0 (* copies placed in an inbox *)
    and a_dropped = ref 0 (* copies destroyed (link loss or dead receiver) *)
    and a_duplicated = ref 0 (* extra copies injected by the adversary *) in
    let base_messages = Metrics.get metrics Messages
    and base_words = Metrics.get metrics Words
    and base_delivered = Metrics.get metrics Delivered
    and base_dropped = Metrics.get metrics Dropped
    and base_duplicated = Metrics.get metrics Duplicated in
    let violation detail = raise (Audit_violation { label; round = !round; detail }) in
    let audit_counter name expected actual =
      if expected <> actual then
        violation
          (Printf.sprintf
             "metrics counter '%s' drifted: engine accounted %d, metrics charged %d \
              (did a step function charge traffic counters mid-run?)"
             name expected actual)
    in
    let audit_round_end () =
      (* conservation: every accepted copy is in an inbox, destroyed, or
         still held by a delay fault *)
      let in_flight_delayed = List.length !delayed in
      if !a_sent + !a_duplicated <> !a_delivered + !a_dropped + in_flight_delayed then
        violation
          (Printf.sprintf
             "copy conservation broken: sent=%d + duplicated=%d <> delivered=%d + dropped=%d \
              + in-flight=%d"
             !a_sent !a_duplicated !a_delivered !a_dropped in_flight_delayed);
      audit_counter "messages" !a_sent (Metrics.get metrics Messages - base_messages);
      audit_counter "words" !a_words (Metrics.get metrics Words - base_words);
      audit_counter "delivered" !a_delivered (Metrics.get metrics Delivered - base_delivered);
      audit_counter "dropped" !a_dropped (Metrics.get metrics Dropped - base_dropped);
      audit_counter "duplicated" !a_duplicated (Metrics.get metrics Duplicated - base_duplicated)
    in
    let audit_inbox_sorted v inbox =
      let rec check = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if a > b then
              violation
                (Printf.sprintf "inbox of node %d not sorted by sender: %d before %d" v a b);
            check rest
        | _ -> ()
      in
      check inbox
    in
    (* round-scoped mutable state, hoisted out of the loop so each
       round reuses the same cells instead of reallocating. The
       one-message-per-link rule is a stamp array: [sent_stamp.(u)] is
       the number of the last commit that sent to [u], and every commit
       draws a fresh number. *)
    let sent_this_round = ref 0 in
    let words_this_round = ref 0 in
    let delivered_this_round = ref 0 in
    let sent_stamp = Array.make n (-1) in
    let commits = ref 0 in
    let drop ~send_round ~round ~src ~dst ~words reason =
      Metrics.add_count metrics Dropped 1;
      if audit then incr a_dropped;
      if tracing then
        emit (Repro_obs.Event.Drop { send_round; round; src; dst; words; reason })
    in
    (* deliver a copy into the round-[r] inboxes, dropping it if the
       receiver is down at delivery time or has cut the sender as a
       chronic straggler. [words] is the size measured when the copy
       was accepted; in audit mode the copy is re-measured on delivery
       so a sender mutating a message after handing it to the network
       is caught. [arr] is the copy's physical arrival time. *)
    let deliver ~send_round ~deliver_round ~words ~arr ~corrupted dst src msg =
      (* a corrupted copy is garbled on delivery: the layer above maps
         it through its [corrupt] transform (and must preserve the word
         count — audit re-measures below); with no transform installed
         the copy is undecodable garbage and is discarded like a
         frame-level CRC failure *)
      let msg, garbled_drop =
        if not corrupted then (msg, false)
        else match corrupt with Some f -> (f msg, false) | None -> (msg, true)
      in
      if audit then begin
        let now = M.words msg in
        if now <> words then
          violation
            (Printf.sprintf
               "message %d -> %d measured %d words at send but %d words at delivery \
                (mutated in flight%s?)"
               src dst words now
               (if corrupted then ", or size-changing corrupt transform" else ""))
      end;
      if down_at ~round:deliver_round dst then
        drop ~send_round ~round:deliver_round ~src ~dst ~words Receiver_down
      else if match pulsed with Some a -> Async_engine.is_cut a ~src ~dst | None -> false
      then
        (* the receiver cut this sender as a chronic straggler — its
           copies are discarded on arrival, like a dead receiver but
           with its own drop reason so traces and replay distinguish *)
        drop ~send_round ~round:deliver_round ~src ~dst ~words Straggler
      else if garbled_drop then drop ~send_round ~round:deliver_round ~src ~dst ~words Garbled
      else begin
        !next_inboxes.(dst) <- (src, msg) :: !next_inboxes.(dst);
        (match pulsed with Some a -> Async_engine.arrived a ~src ~dst arr | None -> ());
        incr delivered_this_round;
        if audit then incr a_delivered;
        if tracing then
          emit (Repro_obs.Event.Deliver { send_round; round = deliver_round; src; dst; words })
      end
    in
    (* the physical arrival time of the [copy]-th copy of a send, whose
       acknowledgement raises the sender's SAFE point *)
    let transmit v u copy =
      match pulsed with
      | None -> 0
      | Some a -> Async_engine.transmit a ~round:!round ~src:v ~dst:u ~copy
    in
    (* the copies of one send, [k] numbering them for [transmit] *)
    let rec launch_copies v u w msg k = function
      | [] -> ()
      | { Fault.extra; corrupt = corrupted } :: rest ->
          let deliver_round = !round + 1 + extra in
          let arr = transmit v u k in
          if corrupted then begin
            Metrics.add_count metrics Corrupted 1;
            if tracing then
              emit
                (Repro_obs.Event.Corrupt { send_round = !round; deliver_round; src = v; dst = u })
          end;
          if extra = 0 then
            deliver ~send_round:!round ~deliver_round ~words:w ~arr ~corrupted u v msg
          else begin
            (* a delay is a logical-schedule fault: the copy is acked on
               its physical schedule but buffered until [deliver_round]'s
               inbox *)
            delayed := (deliver_round, u, v, msg, w, !round, corrupted, arr) :: !delayed;
            if tracing then
              emit (Repro_obs.Event.Delay { round = !round; src = v; dst = u; deliver_round })
          end;
          launch_copies v u w msg (k + 1) rest
    in
    let send v u msg =
      if neighbor_index neighbors.(v) u < 0 then
        invalid_arg
          (Printf.sprintf "Engine.run(%s): round %d: node %d sent to non-neighbor %d" label
             !round v u);
      if sent_stamp.(u) = !commits then
        invalid_arg
          (Printf.sprintf
             "Engine.run(%s): round %d: node %d sent two messages to %d in one round" label
             !round v u);
      sent_stamp.(u) <- !commits;
      let w = M.words msg in
      if audit then begin
        let w' = M.words msg in
        if w' <> w then
          violation
            (Printf.sprintf "M.words unstable on message %d -> %d: measured %d then %d" v u w
               w')
      end;
      if w < 1 || w > max_words then
        invalid_arg
          (Printf.sprintf "Engine.run(%s): round %d: node %d -> %d: message of %d words (cap %d)"
             label !round v u w max_words);
      incr sent_this_round;
      words_this_round := !words_this_round + w;
      if audit then begin
        incr a_sent;
        a_words := !a_words + w
      end;
      if tracing then emit (Repro_obs.Event.Send { round = !round; src = v; dst = u; words = w });
      match faults with
      | None ->
          deliver ~send_round:!round ~deliver_round:(!round + 1) ~words:w ~arr:(transmit v u 0)
            ~corrupted:false u v msg
      | Some _ when link_down v u ->
          (* deterministic partition drop, decided before [plan] so
             severed sends consume no adversary randomness; the sender
             sees the dead carrier at once, so a severed send never
             stretches its SAFE point *)
          drop ~send_round:!round ~round:!round ~src:v ~dst:u ~words:w Severed
      | Some f -> (
          match Fault.plan f ~round:!round ~src:v ~dst:u with
          | [] ->
              (* a lost copy's NACK returns on the ack's schedule *)
              ignore (transmit v u 0);
              drop ~send_round:!round ~round:!round ~src:v ~dst:u ~words:w Link
          | fates ->
              let copies = List.length fates in
              if copies > 1 then begin
                Metrics.add_count metrics Duplicated (copies - 1);
                if audit then a_duplicated := !a_duplicated + copies - 1;
                if tracing then
                  emit (Repro_obs.Event.Duplicate { round = !round; src = v; dst = u; copies })
              end;
              launch_copies v u w msg 0 fates)
    in
    let rec send_all v = function
      | [] -> ()
      | (u, msg) :: rest ->
          send v u msg;
          send_all v rest
    in
    let step_node v =
      (* contract: inboxes are presented sorted by sender id, so
         algorithms cannot depend on delivery-schedule accidents *)
      let inbox = sort_inbox !inboxes.(v) in
      if audit then audit_inbox_sorted v inbox;
      let st, outbox = step ~round:!round ~node:v states.(v) inbox in
      states.(v) <- st;
      outbox
    in
    let commit v outbox =
      incr commits;
      send_all v outbox
    in
    (* async mode steps every node in virtual-time order first and
       commits the outboxes afterwards in node order, so the adversary's
       fate draws — and with them every delivery, drop and duplicate —
       follow the synchronous schedule exactly *)
    let outboxes = Array.make (if Option.is_some pulsed then n else 0) [] in
    let step_async v = outboxes.(v) <- step_node v in
    let commit_async v =
      commit v outboxes.(v);
      outboxes.(v) <- []
    in
    while continue () do
      if !round >= max_rounds then
        raise
          (Round_limit_exceeded
             { label; rounds = !round; active_nodes = count_active () });
      if tracing then begin
        emit (Repro_obs.Event.Round_start { round = !round });
        match faults with
        | None -> ()
        | Some f ->
            for v = 0 to n - 1 do
              let down = Fault.crashed f ~round:!round v in
              if down <> prev_down.(v) then
                emit
                  (if down then Repro_obs.Event.Crash { round = !round; node = v }
                   else Repro_obs.Event.Restart { round = !round; node = v });
              prev_down.(v) <- down
            done;
            emit_link_transitions ()
      end;
      (match faults with
      | Some f ->
          for v = 0 to n - 1 do
            if Fault.restarted f ~round:!round v then
              states.(v) <- restart_state ~round:!round ~node:v
          done
      | None -> ());
      sent_this_round := 0;
      words_this_round := 0;
      delivered_this_round := 0;
      (match pulsed with
      | None ->
          for v = 0 to n - 1 do
            if not (down v) then commit v (step_node v)
          done
      | Some a ->
          Async_engine.dispatch a ~round:!round step_async;
          Async_engine.commit a ~round:!round commit_async);
      (* copies whose delay matured this round join the next inboxes *)
      if !delayed <> [] then begin
        let matured, still_held =
          List.partition (fun (dr, _, _, _, _, _, _, _) -> dr = !round + 1) !delayed
        in
        delayed := still_held;
        List.iter
          (fun (dr, dst, src, msg, w, sr, corrupted, arr) ->
            deliver ~send_round:sr ~deliver_round:dr ~words:w ~arr ~corrupted dst src msg)
          matured
      end;
      (* swap the buffers: this round's deliveries become next round's
         inboxes, and the consumed array is wiped for reuse *)
      let filled = !next_inboxes in
      next_inboxes := !inboxes;
      inboxes := filled;
      Array.fill !next_inboxes 0 n [];
      in_flight := Array.exists (fun ib -> ib <> []) filled;
      Metrics.add_count metrics Messages !sent_this_round;
      Metrics.add_count metrics Words !words_this_round;
      Metrics.add_count metrics Delivered !delivered_this_round;
      if audit then audit_round_end ();
      if tracing then emit (Repro_obs.Event.Round_end { round = !round });
      (match pulsed with Some a -> Async_engine.gate a ~round:!round | None -> ());
      incr round;
      Metrics.add metrics ~label 1
    done;
    states
  [@@charge_site]
end
