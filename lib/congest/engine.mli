(** Message-passing CONGEST engine: one executor for synchronous and
    asynchronous runs.

    The communication network is the skeleton [[G]] of the input graph
    (Section 2.1 of the paper): undirected, simple, unweighted. In each
    round every node may send one message of at most [max_words] machine
    words (a word models O(log n) bits) to each neighbor, then receives
    all messages sent to it in the same round, then computes locally.

    Algorithms are given as a [step] function. The engine enforces the
    bandwidth constraint and counts rounds, messages, and words into a
    {!Metrics.t}.

    Links are reliable by default. An optional {!Fault.t} adversary can
    drop, duplicate, and delay messages and take nodes down according to
    a seeded, reproducible schedule (DESIGN.md "Fault model"); layer
    {!Transport} on top to get reliable delivery back over such links.

    {b Schedules.} [run] picks its schedule once, at entry. A run whose
    fault profile has a timing dimension ({!Fault.timing_active}), or
    any run while {!Async_engine.forced} is set, executes
    asynchronously under Awerbuch's α-synchronizer; every other run
    uses identity timing, where a round is simply the next step of
    every node in node order. Both schedules share the same bandwidth
    checks, fate handling, audit, round limit and exceptions, so
    algorithms run unchanged either way. The asynchronous schedule:

    - a {e pulse} coincides with one logical round. Node [v] begins
      pulse 0 at its clock-skew offset; its pulse-[p] computation costs
      [straggle_factor] virtual-time units.
    - every copy [v] sends spends [1 + latency] units per wire
      crossing; when the acknowledgement of every pulse-[p] copy is
      back (drops are sender-detectable — the NACK travels the ack's
      schedule), [v] is {e safe} and fans SAFE to its live neighbors.
    - [v] starts pulse [p + 1] at the maximum of: its own step end and
      SAFE point, the physical arrival of every copy addressed into
      pulse [p + 1], and the arrival of every live uncut neighbor's
      pulse-[p] SAFE. When {!Async_engine.deadline} pacing is on, a
      neighbor whose terms alone hold that gate open past everything
      else [v] is waiting for (by more than the backed-off allowance)
      is struck, and after 3 consecutive strikes cut; its
      copies then drop with reason [Straggler], starving the heartbeat
      {!Detector} into suspecting it. The criterion is relative, so lag
      inherited from a straggler deeper in the graph cancels out
      instead of cascading cuts ring by ring.

    Determinism and exactness (DESIGN.md Section 3g): user steps run
    in virtual-time order off a deterministic event queue, but the
    adversary's fates are drawn at pulse commit in the identity
    schedule's order (node ascending, outbox order), and timing draws
    are pure seed hashes — so outputs and the core traffic metrics are
    byte-identical to the synchronous run whenever the timing
    dimensions preserve semantics (no unbounded stalls, deadline pacing
    off). Synchronizer overhead is charged to the separate [pulses] /
    [safe_messages] / [straggles] / [virtual_time] counters. A node
    inside an unbounded stall window is treated as crash-stopped.

    An optional audit mode (DESIGN.md "Model compliance & static
    analysis") cross-checks the engine's own accounting every round and
    raises {!Audit_violation} on drift. *)

(** Raised when [run] exceeds its round budget: carries the metrics
    label of the execution, the number of rounds elapsed, and how many
    nodes still wanted another round. *)
exception
  Round_limit_exceeded of { label : string; rounds : int; active_nodes : int }

(** Raised by audit mode when a per-round conservation invariant fails:
    [detail] names the counter (or message) involved, with the offending
    node ids and the mismatching amounts. Invariants checked each round:

    - copy conservation: accepted sends + adversary-injected duplicates
      = copies delivered + copies destroyed + copies still in flight;
    - metrics conservation: the [messages], [words], [delivered],
      [dropped] and [duplicated] counters of the run's {!Metrics.t}
      advanced exactly by what the engine accounted (a [step] function
      charging traffic counters mid-run is reported as drift);
    - inboxes are genuinely sorted by ascending sender id;
    - [M.words] is stable: the same message measures the same size when
      measured twice at send time and again at delivery time (a message
      mutated while "in flight" breaks the bandwidth model silently). *)
exception Audit_violation of { label : string; round : int; detail : string }

(** When true, every [run] audits. The test suites set this so
    accounting drift fails tests; it defaults to [false] for production
    runs. *)
val audit_enabled : bool ref

(** Process-wide trace sink (DESIGN.md "Observability"). Defaults to
    the disabled [Repro_obs.Sink.null]; install an enabled sink (e.g.
    [Repro_obs.Recorder.sink]) to make every subsequent [run] — and the
    {!Transport} and {!Recovery} layers riding on it — emit typed
    events ([Run_start], [Round_start]/[Round_end], [Send], [Deliver],
    [Drop], [Duplicate], [Delay], crash transitions, ...). Emit sites
    test [enabled] before building an event, so the default sink adds
    zero allocation and no measurable cost; the engine never depends
    on a concrete sink implementation. *)
val trace_sink : Repro_obs.Sink.t ref

module type MSG = sig
  type t

  (** Size of a message in machine words; must be positive and at most the
      engine's [max_words]. Must be stable: audit mode re-measures messages
      and raises on disagreement. *)
  val words : t -> int
end

module Make (M : MSG) : sig
  (** Inbox entry: [(sender, message)]. Inboxes are presented to [step]
      sorted by ascending sender id — an explicit contract, so algorithms
      cannot silently depend on delivery-schedule accidents (and so
      reordering faults are meaningful). Under a duplication fault the
      same sender may appear more than once. *)
  type inbox = (int * M.t) list

  (** Outbox entry: [(receiver, message)]. The receiver must be a neighbor
      in the skeleton. *)
  type outbox = (int * M.t) list

  (** [run skeleton ~init ~step ~active ~metrics ~label ()] executes the
      algorithm until no node is active and no message is in flight, or
      until [max_rounds] elapses (then raises {!Round_limit_exceeded}).

      - [init v] is node [v]'s initial state.
      - [step ~round ~node st inbox] returns the new state and outbox.
        [step] runs for every node in every round (an empty inbox means no
        messages arrived).
      - [active st] declares a node that wants another round even if it
        received nothing (e.g. it still has queued sends).
      - [faults], when given, is applied between outbox collection and
        inbox delivery: dropped and duplicated copies are charged to
        [metrics]; a crashed node neither steps nor sends, and messages
        addressed to it at delivery time are dropped. Crash-stop nodes
        are excluded from the liveness check so they cannot livelock the
        run. A [Freeze] crash-restart resumes with the pre-crash state; an
        [Amnesia] crash-restart loses all volatile state: at the restart
        round the engine rebuilds the node's state via [on_restart]
        (messages already delivered into the restart round's inbox are
        kept — they arrive after the reboot). Executions are kept alive
        while an amnesia outage is in progress so the restart runs.
        A send on a link severed by an active partition window is
        dropped deterministically {e before} the adversary's random
        per-copy decisions (so partitions replay exactly and consume no
        randomness); a copy already in flight when a cut lands still
        arrives — the cut severs new transmissions. Corrupted copies
        are charged to {!Metrics.Corrupted} and handled per
        [corrupt] below.
      - [on_restart ~round ~node], when given, replaces [init] for
        rebuilding the state of an amnesia-restarted node (default:
        re-run [init]). Layered protocols use it to bump connection
        epochs ({!Transport}) or reload checkpoints ({!Recovery}).
      - [corrupt], when given, maps each adversary-corrupted copy
        through this transform at delivery time — the layer above
        decides what "garbled" means for its message type ({!Transport}
        invalidates its packet checksum). The transform must preserve
        [M.words] (audit mode re-measures on delivery and raises
        otherwise). When absent, a corrupted copy is undecodable
        garbage: it is discarded at delivery time like a frame-level
        CRC failure (a [Drop] with reason [Garbled], charged as
        dropped).
      - While {!audit_enabled} is set, the run cross-checks the
        conservation invariants documented on {!Audit_violation} at the
        end of every round.
      - Rounds consumed are charged to [metrics] under [label]; accepted
        sends are charged as messages and words, accepted deliveries as
        delivered.

      @raise Invalid_argument on bandwidth violation. The message names
      the run label, round, sending node, receiver, and (for size
      violations) the measured words and the cap.
      @raise Audit_violation in audit mode on accounting drift. *)
  val run :
    Repro_graph.Digraph.t ->
    init:(int -> 'st) ->
    step:(round:int -> node:int -> 'st -> inbox -> 'st * outbox) ->
    active:('st -> bool) ->
    ?faults:Fault.t ->
    ?on_restart:(round:int -> node:int -> 'st) ->
    ?corrupt:(M.t -> M.t) ->
    ?max_rounds:int ->
    ?max_words:int ->
    metrics:Metrics.t ->
    label:string ->
    unit ->
    'st array
end

(** Default message size cap (machine words per message). *)
val default_max_words : int

(** [sort_inbox inbox] is [List.stable_sort] of [inbox] by ascending
    sender: the order [step] sees. An inbox built by consing arrives
    with senders strictly descending, and then this is [List.rev]
    without a sort; any other order (the same sender twice, a matured
    delay) falls back to the stable sort. {!Transport} and {!Recovery}
    order the inboxes they hand up with it too. *)
val sort_inbox : (int * 'a) list -> (int * 'a) list

(** [neighbor_index nbrs u] is the position of [u] in the ascending
    array [nbrs] (a {!Repro_graph.Digraph.neighbors} array), or [-1]. *)
val neighbor_index : int array -> int -> int
