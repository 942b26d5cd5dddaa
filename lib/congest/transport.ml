module Digraph = Repro_graph.Digraph

(* initial retransmission timeout in rounds; it must exceed the 2-round
   fault-free ack latency (data, then ack), or every message would be
   retransmitted before its ack could arrive *)
let rto = 4

module Make (M : Engine.MSG) = struct
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  (* One packet per link per round, carrying the sender's connection
     epoch, at most one data payload (with its sequence number), at
     most one piggybacked ack (echoing the data-sender's epoch, so a
     restarted sender cannot be fooled by an ack for a pre-crash
     sequence number), a NACK bit asking the peer to retransmit its
     outstanding message, and a checksum over everything else. Header
     cost: 1 word for the epoch, 1 for the checksum, 1 word per
     sequence number carried (data seq / ack echo+seq count as 1 and
     2); the NACK bit rides free in the header. *)
  module Packet = struct
    type t = {
      epoch : int;
      data : (int * M.t) option;
      ack : (int * int) option;
      nack : bool;
      crc : int;
    }

    let words p =
      2
      + (match p.data with Some (_, m) -> 1 + M.words m | None -> 0)
      + match p.ack with Some _ -> 2 | None -> 0

    (* structural hash of every field the checksum protects (not [crc]
       itself). The adversary's garbling is modeled as flipping [crc],
       so any mismatch test works; a real CRC's residual-error rate is
       out of scope. *)
    let checksum p = Hashtbl.hash (p.epoch, p.data, p.ack, p.nack)

    let seal p = { p with crc = checksum p }
    let intact p = checksum p = p.crc
  end

  module E = Engine.Make (Packet)

  type link = {
    mutable next_seq : int;
    sendq : M.t Queue.t;  (* user messages not yet launched *)
    mutable outstanding : (int * M.t) option;  (* launched, unacked *)
    mutable retry_round : int;
    mutable backoff : int;  (* backoff exponent for this message (capped) *)
    mutable retries : int;  (* total retransmissions of this message *)
    mutable unheard : int;  (* retransmissions since the last ack or intact NACK *)
    mutable nack_owed : bool;  (* a corrupt packet arrived; ask for a resend *)
    mutable dead : bool;  (* retry budget exhausted; link abandoned *)
    ackq : (int * int) Queue.t;  (* (peer epoch, seq) acks owed to the peer *)
    (* stop-and-wait delivers in order, so a single delivered-seq
       watermark replaces the old unbounded per-link dedup hashtable:
       a data seq is fresh iff it exceeds the watermark (O(1) memory
       per link under any dup/delay profile) *)
    mutable watermark : int;
    mutable peer_epoch : int;  (* largest connection epoch seen from the peer *)
  }

  (* [nbrs] is the sorted neighbor list: per-round link iteration walks it
     instead of the [links] hashtable so packet launch order (and with it
     the fault adversary's RNG consumption) is deterministic. *)
  type 'st node = {
    user : 'st;
    my_epoch : int;  (* bumped to the restart round on every amnesia reboot *)
    links : (int, link) Hashtbl.t;
    nbrs : int array;
  }

  let fresh_link () =
    {
      next_seq = 0;
      sendq = Queue.create ();
      outstanding = None;
      retry_round = 0;
      backoff = 0;
      retries = 0;
      unheard = 0;
      nack_owed = false;
      dead = false;
      ackq = Queue.create ();
      watermark = -1;
      peer_epoch = 0;
    }

  let run skeleton ~init ~step ~active ?faults ?on_restart ?(jitter_seed = 0)
      ?(max_retries = 25) ?max_rounds ?(max_words = Engine.default_max_words) ~metrics ~label
      () =
    if max_retries < 0 then invalid_arg "Transport.run: negative max_retries";
    (* deterministic desynchronization of retransmission timers: a pure
       hash of (seed, link, seq, attempt), so replaying the same run
       reproduces the exact same schedule — no RNG state involved *)
    let jitter ~src ~dst ~seq ~attempt =
      Hashtbl.hash (jitter_seed, src, dst, seq, attempt) mod (1 + (rto / 2))
    in
    (* transport-level events go through the same process-wide sink as
       the engine's; captured once per run, guarded like every site *)
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let fresh_node ~epoch v user =
      let nbrs = Digraph.neighbors skeleton v in
      let links = Hashtbl.create 8 in
      Array.iter (fun u -> Hashtbl.replace links u (fresh_link ())) nbrs;
      { user; my_epoch = epoch; links; nbrs }
    in
    let wrap_init v = fresh_node ~epoch:0 v (init v) in
    (* amnesia restart: all link state is volatile and lost; the engine
       round (strictly increasing across a node's restarts, and > the
       initial epoch 0) becomes the new connection epoch, so both
       endpoints reset their sequence/dedup state instead of silently
       misinterpreting stale sequence numbers *)
    let restart_user =
      match on_restart with Some f -> f | None -> fun ~round:_ ~node -> init node
    in
    let wrap_restart ~round ~node =
      fresh_node ~epoch:round node (restart_user ~round ~node)
    in
    let wrap_step ~round ~node:v st inbox =
      (* 1. absorb packets: track peer epochs, clear acked messages, ack
         and dedup data. A packet from an epoch older than the peer's
         known one predates the peer's last restart: ignore it entirely. *)
      let fresh = ref [] in
      List.iter
        (fun (u, p) ->
          let l = Hashtbl.find st.links u in
          if l.dead then ()
          else if not (Packet.intact p) then begin
            (* checksum failure: the payload was garbled in flight.
               Reject the packet wholesale — its epoch, data, ack and
               nack are all untrusted — and owe the peer a NACK so it
               retransmits without waiting out its timeout. *)
            Metrics.add_count metrics Rejected 1;
            l.nack_owed <- true
          end
          else if p.Packet.epoch >= l.peer_epoch then begin
            if p.Packet.epoch > l.peer_epoch then begin
              (* the peer restarted: its sequence space starts over, and
                 whatever we had delivered from the old connection is
                 void — reset the receive watermark *)
              l.peer_epoch <- p.Packet.epoch;
              l.watermark <- -1
            end;
            (match p.Packet.ack with
            | Some (e, s) when e = st.my_epoch -> (
                match l.outstanding with
                | Some (s', _) when s' = s ->
                    l.outstanding <- None;
                    l.backoff <- 0;
                    l.retries <- 0;
                    l.unheard <- 0;
                    if tracing then
                      Repro_obs.Sink.emit sink
                        (Repro_obs.Event.Ack { round; src = v; dst = u; seq = s })
                | _ -> ())
            | _ -> ());
            (* the peer rejected our last packet: fast-retransmit the
               outstanding message this round. An intact NACK proves the
               peer is reachable, so it refills the retry budget. *)
            (if p.Packet.nack then
               match l.outstanding with
               | Some (s, _) ->
                   l.retry_round <- round;
                   l.unheard <- 0;
                   if tracing then
                     Repro_obs.Sink.emit sink
                       (Repro_obs.Event.Nack { round; src = v; dst = u; seq = s })
               | None -> ());
            match p.Packet.data with
            | Some (s, payload) ->
                Queue.add (p.Packet.epoch, s) l.ackq;
                if s > l.watermark then begin
                  l.watermark <- s;
                  fresh := (u, payload) :: !fresh
                end
            | None -> ()
          end)
        inbox;
      (* 2. run the user's step on the deduplicated, sender-sorted inbox *)
      let user_inbox = List.sort (fun (a, _) (b, _) -> Int.compare a b) !fresh in
      let user, user_out = step ~round ~node:v st.user user_inbox in
      let queued_to = Hashtbl.create 4 in
      List.iter
        (fun (u, m) ->
          (match Hashtbl.find_opt st.links u with
          | None ->
              invalid_arg
                (Printf.sprintf "Transport.run(%s): round %d: node %d sent to non-neighbor %d"
                   label round v u)
          | Some l -> if not l.dead then Queue.add m l.sendq);
          if Hashtbl.mem queued_to u then
            invalid_arg
              (Printf.sprintf
                 "Transport.run(%s): round %d: node %d sent two messages to %d in one round"
                 label round v u);
          Hashtbl.add queued_to u ())
        user_out;
      (* 3. per link, in ascending neighbor order: retransmit if the
         timeout expired, else launch the next queued message; piggyback
         one owed ack *)
      let out = ref [] in
      Array.iter
        (fun u ->
          let l = Hashtbl.find st.links u in
          if not l.dead then begin
            let data =
              match l.outstanding with
              | Some (s, _) when round >= l.retry_round && l.unheard >= max_retries ->
                  (* retry budget exhausted: the link is as good as cut.
                     Abandon everything queued on it and stop spending
                     rounds/bandwidth — the failure surfaces as a
                     [Link_lost] event, a [link_failures] charge, and
                     (one layer up) a {!Detector} suspicion feeding a
                     [Partial] verdict, instead of retrying forever. *)
                  l.dead <- true;
                  l.outstanding <- None;
                  l.nack_owed <- false;
                  Queue.clear l.sendq;
                  Queue.clear l.ackq;
                  Metrics.add_count metrics Link_failures 1;
                  if tracing then
                    Repro_obs.Sink.emit sink
                      (Repro_obs.Event.Link_lost
                         { round; src = v; dst = u; seq = s; retries = l.retries });
                  None
              | Some (s, m) when round >= l.retry_round ->
                  Metrics.add_count metrics Retransmissions 1;
                  if tracing then
                    Repro_obs.Sink.emit sink
                      (Repro_obs.Event.Retransmit { round; src = v; dst = u; seq = s });
                  l.retries <- l.retries + 1;
                  l.unheard <- l.unheard + 1;
                  l.backoff <- min (l.backoff + 1) 6;
                  l.retry_round <-
                    round + (rto lsl l.backoff)
                    + jitter ~src:v ~dst:u ~seq:s ~attempt:l.retries;
                  Some (s, m)
              | Some _ -> None
              | None ->
                  if Queue.is_empty l.sendq then None
                  else begin
                    let m = Queue.pop l.sendq in
                    let s = l.next_seq in
                    l.next_seq <- s + 1;
                    l.outstanding <- Some (s, m);
                    l.backoff <- 0;
                    l.retries <- 0;
                    l.unheard <- 0;
                    l.retry_round <- round + rto;
                    Some (s, m)
                  end
            in
            if not l.dead then begin
              let ack = if Queue.is_empty l.ackq then None else Some (Queue.pop l.ackq) in
              let nack = l.nack_owed in
              l.nack_owed <- false;
              if data <> None || ack <> None || nack then
                out :=
                  (u, Packet.seal { Packet.epoch = st.my_epoch; data; ack; nack; crc = 0 })
                  :: !out
            end
          end)
        st.nbrs;
      ({ st with user }, !out)
    in
    let wrap_active st =
      active st.user
      (* dead links hold no deliverable traffic and never block quiescence *)
      || Det_tbl.exists
           (fun _ l ->
             (not l.dead)
             && (l.outstanding <> None
                || (not (Queue.is_empty l.sendq))
                || not (Queue.is_empty l.ackq)))
           st.links
    in
    let states =
      E.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart ?max_rounds
        ~corrupt:(fun p -> { p with Packet.crc = p.Packet.crc lxor 0x2a })
        ~max_words:(max_words + 5) ~metrics ~label ()
    in
    Array.map (fun st -> st.user) states
end
