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
    let checksum epoch data ack nack = Hashtbl.hash (epoch, data, ack, nack)

    (* a sealed packet, built once with its checksum *)
    let make ~epoch ~data ~ack ~nack =
      { epoch; data; ack; nack; crc = checksum epoch data ack nack }

    let intact p = checksum p.epoch p.data p.ack p.nack = p.crc
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
    (* the last round the user queued a message on this link: the
       one-message-per-link-per-round check *)
    mutable queued_round : int;
  }

  (* [nbrs] is the sorted neighbor array and [links.(i)] the link to
     [nbrs.(i)]: per-round link iteration walks them in ascending
     neighbor order, so packet launch order (and with it the fault
     adversary's RNG consumption) is deterministic. A node record is
     built once per boot; each step updates [user] in place. *)
  type 'st node = {
    mutable user : 'st;
    my_epoch : int;  (* bumped to the restart round on every amnesia reboot *)
    links : link array;
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
      queued_round = -1;
    }

  let run skeleton ~init ~step ~active ?faults ?on_restart ?(jitter_seed = 0)
      ?(max_retries = 25) ?(max_words = Engine.default_max_words) ~metrics ~label () =
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
    let neighbors = Array.init (Digraph.n skeleton) (Digraph.neighbors skeleton) in
    let fresh_node ~epoch v user =
      let nbrs = neighbors.(v) in
      { user; my_epoch = epoch; links = Array.map (fun _ -> fresh_link ()) nbrs; nbrs }
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
    (* 1. absorb packets: track peer epochs, clear acked messages, ack
       and dedup data. A packet from an epoch older than the peer's
       known one predates the peer's last restart: ignore it entirely.
       Returns the fresh payloads consed onto [fresh]. *)
    let rec absorb st v round fresh = function
      | [] -> fresh
      | (u, p) :: rest ->
          let l = st.links.(Engine.neighbor_index st.nbrs u) in
          let fresh =
            if l.dead then fresh
            else if not (Packet.intact p) then begin
              (* checksum failure: the payload was garbled in flight.
                 Reject the packet wholesale — its epoch, data, ack and
                 nack are all untrusted — and owe the peer a NACK so it
                 retransmits without waiting out its timeout. *)
              Metrics.add_count metrics Rejected 1;
              l.nack_owed <- true;
              fresh
            end
            else if p.Packet.epoch >= l.peer_epoch then begin
              if p.Packet.epoch > l.peer_epoch then begin
                (* the peer restarted: its sequence space starts over,
                   and whatever we had delivered from the old connection
                   is void — reset the receive watermark *)
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
                 outstanding message this round. An intact NACK proves
                 the peer is reachable, so it refills the retry budget. *)
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
                    (u, payload) :: fresh
                  end
                  else fresh
              | None -> fresh
            end
            else fresh
          in
          absorb st v round fresh rest
    in
    (* the user's outbox joins its links' send queues: a neighbor per
       entry, at most one entry per link per round *)
    let rec enqueue st v round = function
      | [] -> ()
      | (u, m) :: rest ->
          let i = Engine.neighbor_index st.nbrs u in
          if i < 0 then
            invalid_arg
              (Printf.sprintf "Transport.run(%s): round %d: node %d sent to non-neighbor %d"
                 label round v u);
          let l = st.links.(i) in
          if not l.dead then Queue.add m l.sendq;
          if l.queued_round = round then
            invalid_arg
              (Printf.sprintf
                 "Transport.run(%s): round %d: node %d sent two messages to %d in one round"
                 label round v u);
          l.queued_round <- round;
          enqueue st v round rest
    in
    (* 3. per link, in ascending neighbor order: retransmit if the
       timeout expired, else launch the next queued message; piggyback
       one owed ack. Packets are consed onto [out]. *)
    let rec launch st v round i out =
      if i = Array.length st.nbrs then out
      else begin
        let u = st.nbrs.(i) and l = st.links.(i) in
        let out =
          if l.dead then out
          else begin
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
            if l.dead then out
            else begin
              let ack = if Queue.is_empty l.ackq then None else Some (Queue.pop l.ackq) in
              let nack = l.nack_owed in
              l.nack_owed <- false;
              if data <> None || ack <> None || nack then
                (u, Packet.make ~epoch:st.my_epoch ~data ~ack ~nack) :: out
              else out
            end
          end
        in
        launch st v round (i + 1) out
      end
    in
    let wrap_step ~round ~node:v st inbox =
      (* 2. run the user's step on the deduplicated, sender-sorted inbox *)
      let user_inbox = Engine.sort_inbox (absorb st v round [] inbox) in
      let stepped, user_out = step ~round ~node:v st.user user_inbox in
      st.user <- stepped;
      enqueue st v round user_out;
      (st, launch st v round 0 [])
    in
    let wrap_active st =
      active st.user
      (* dead links hold no deliverable traffic and never block quiescence *)
      || Array.exists
           (fun l ->
             (not l.dead)
             && (Option.is_some l.outstanding
                || (not (Queue.is_empty l.sendq))
                || not (Queue.is_empty l.ackq)))
           st.links
    in
    let states =
      E.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart
        ~corrupt:(fun p -> { p with Packet.crc = p.Packet.crc lxor 0x2a })
        ~max_words:(max_words + 5) ~metrics ~label ()
    in
    Array.map (fun st -> st.user) states
end
