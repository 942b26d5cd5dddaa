(** Reliable transport over faulty CONGEST links.

    Layers per-link acknowledgements, round-based retransmission timeouts
    with exponential backoff, sequence-number deduplication, and per-link
    {e connection epochs} on top of the (possibly fault-injected)
    {!Engine}, exposing the same step-function interface — existing
    algorithms run unchanged over it.

    Guarantees, for any {!Fault.t} profile with drop probability < 1 and
    no crash-stop nodes: between two endpoints that do not lose state,
    every message handed to the transport is delivered to its
    destination's [step] function exactly once, and per-link FIFO order
    is preserved (each link is stop-and-wait: message [k+1] is not
    launched until [k] is acknowledged). Round numbers seen by [step]
    are engine rounds, not per-node logical times.

    {b Crash-amnesia safety.} Every packet carries its sender's
    connection epoch; an amnesia-restarted node (whose transport state is
    volatile and lost) comes back with its epoch bumped to the restart
    round. A peer seeing a higher epoch resets its receive watermark for
    that link, and acks echo the data-sender's epoch, so stale sequence
    numbers from the pre-crash connection can neither suppress fresh data
    (dedup-drop) nor acknowledge data the restarted node never received.
    Across an amnesia restart the guarantee necessarily weakens to
    {e at-least-once}: copies delivered before the crash may be delivered
    again after the rollback, and messages queued in the crashed node's
    volatile send buffers are lost — {!Recovery} restores exactness at
    the algorithm level (checkpoints + neighbor resync) for programs that
    tolerate re-delivery.

    {b Integrity.} Every packet carries a checksum over its header and
    payload; the fault adversary's payload corruption is modeled as a
    checksum-breaking garble. A receiver rejects a checksum-failing
    packet wholesale (nothing in it is trusted — charged to
    {!Metrics.Rejected}) and sets a free NACK header bit on its next
    packet back, which makes the sender fast-retransmit its outstanding
    message instead of waiting out the timeout. Corrupted payloads are
    therefore never delivered to [step]: the algorithm sees only intact,
    exactly-once messages, at the price of extra retransmissions.

    {b Bounded retries.} A link is declared {e dead} when its outstanding
    message has been retransmitted [max_retries] times in a row (default
    25) with no ack and no intact NACK from the peer in between. Either
    one proves the peer reachable and refills the budget (a NACK does not
    reset the backoff). A link that keeps NACKing still delivers: the
    adversary corrupts with probability < 1, so some copy arrives intact
    and is acked. On a dead link everything queued is abandoned, a
    [Link_lost] trace event and a {!Metrics.Link_failures} charge record
    the typed failure, and the link stops blocking quiescence — so a run
    over a permanently partitioned link terminates instead of retrying
    forever. The typed verdict surfaces one layer up: a {!Detector} turns
    silent links into per-node suspicions and a [Partial] result.

    Cost: a packet spends 1 header word on the epoch, 1 on the
    checksum, 1 on a data sequence number, and 2 on a piggybacked ack
    (echoed epoch + seq), so the inner engine runs with [max_words + 5];
    a fault-free message costs ~2 rounds of link latency (data, then ack
    unblocks the next send). Retransmissions are charged to
    {!Metrics.Retransmissions}.

    Per-link memory is O(1): stop-and-wait delivers in order, so received
    sequences are deduplicated against a single delivered-seq watermark
    (not a table of every seq ever seen), under any dup/delay profile. *)

module Make (M : Engine.MSG) : sig
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  (** [run skeleton ~init ~step ~active ~metrics ~label ()] — same
      contract as {!Engine.Make.run} (inboxes sorted by sender id,
      bandwidth checks on user messages, liveness via [active] once all
      transport queues drain, the engine's default round budget), plus:

      - [faults] — adversary applied to the underlying links;
      - [on_restart ~round ~node] — rebuilds the {e user} state of an
        amnesia-restarted node (default: re-run [init]); the transport
        rebuilds its own link state (fresh queues, epoch = restart round)
        around it;
      - the retransmission timeout is 4 rounds, more than the 2-round
        fault-free ack latency; it doubles on each retry, capped at
        [64 * 4] rounds plus jitter;
      - [jitter_seed] — seeds the retransmission-timer jitter: each
        backoff interval is stretched by
        [hash (seed, link, seq, attempt) mod 3] extra rounds.
        The jitter is a pure hash of the schedule position (no RNG
        state), so a replayed run reproduces the exact same
        retransmission schedule; default 0.
      - [max_retries] — retransmissions without an ack or intact NACK
        before the link is declared dead (see {e Bounded retries}
        above); default 25. *)
  val run :
    Repro_graph.Digraph.t ->
    init:(int -> 'st) ->
    step:(round:int -> node:int -> 'st -> inbox -> 'st * outbox) ->
    active:('st -> bool) ->
    ?faults:Fault.t ->
    ?on_restart:(round:int -> node:int -> 'st) ->
    ?jitter_seed:int ->
    ?max_retries:int ->
    ?max_words:int ->
    metrics:Metrics.t ->
    label:string ->
    unit ->
    'st array
end
