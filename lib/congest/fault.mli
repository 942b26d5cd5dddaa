(** Deterministic fault-injection adversary for the CONGEST engine.

    The paper's model (Section 2.1) assumes perfectly reliable synchronous
    links. This module relaxes that assumption so experiments can measure
    how fragile the reproduced algorithms are and what reliability costs
    in rounds (experiments E-F1..E-F3, DESIGN.md "Fault model").

    The adversary is an oblivious, seeded random process
    ({!Random.State}-based, the same seeding idiom as
    [Repro_graph.Generators]): given the same seed and the same execution
    it makes the same decisions, so every faulty run is reproducible.

    Composable fault dimensions, all off by default:
    - [drop]: each message copy is destroyed with this probability;
    - [duplicate]: each surviving message spawns one extra copy with this
      probability;
    - [max_delay]: each copy is held a uniform number of extra rounds in
      [0..max_delay] (delays of distinct copies are independent, so a
      duplicated message can be reordered against later traffic);
    - [corrupt]: each surviving copy has its payload garbled in flight
      with this probability. The engine treats a corrupted copy as
      undecodable garbage and discards it (frame-level CRC semantics)
      unless the layer above supplies a corruption transform — see
      [?corrupt] on {!Engine.Make.run}; {!Transport} supplies one that
      invalidates the packet checksum, so corruption becomes visible to
      (and survivable by) its integrity sublayer;
    - [crashes]: per-node round windows during which the node neither
      steps, sends, nor receives; messages addressed to it are dropped.
      A window with [until_round = None] is crash-stop; with [Some r] the
      node restarts at round [r] (crash-restart). What the node restarts
      {e with} is the window's {!mode}: [Freeze] resumes with the exact
      pre-crash state (the unrealistically kind model of PR 1); [Amnesia]
      loses all volatile state — the engine re-runs [init] (or the
      [on_restart] hook, see {!Engine.Make.run}) at the restart round,
      which is how real processes come back. Layer {!Recovery} on top to
      survive amnesia with oracle-exact outputs;
    - [partitions]: persistent link faults. Each window takes a {!cut}
      (an explicit link set, or a vertex cut = every link incident to a
      listed node) down from [from_round], either forever
      ([heal_round = None]) or until it heals. Unlike [drop], a severed
      link loses {e every} copy, deterministically — no retransmission
      count gets a message across before the heal. Layer {!Detector} on
      top to detect the unreachable side and certify partial results. *)

(** What a crash-restart node remembers when it comes back up. *)
type mode =
  | Freeze  (** pre-crash state preserved verbatim (PR-1 semantics). *)
  | Amnesia  (** volatile state lost; [init]/[on_restart] re-runs. *)

type crash = {
  node : int;
  from_round : int;  (** first round the node is down. *)
  until_round : int option;
      (** [None] = crash-stop (never restarts); [Some r] = the node is up
          again from round [r] on. *)
  mode : mode;
      (** restart semantics; irrelevant for crash-stop windows (and
          [Amnesia] with [until_round = None] is rejected — an amnesia
          crash that never restarts is just crash-stop). *)
}

(** [crash ~from ?until ?mode node] builds a crash window; [mode]
    defaults to [Freeze]. *)
val crash : ?until:int -> ?mode:mode -> from:int -> int -> crash

(** Which links a partition takes down. Links are undirected: listing
    [(u, v)] severs both directions, matching the engine's undirected
    communication skeleton. *)
type cut =
  | Links of (int * int) list  (** exactly these links. *)
  | Around of int list  (** every link incident to a listed node. *)

type partition = {
  cut : cut;
  from_round : int;  (** first round the cut is down. *)
  heal_round : int option;
      (** [None] = never heals; [Some r] = links are back from round [r]. *)
}

(** [partition ~from ?heal cut] builds a partition window. *)
val partition : ?heal:int -> from:int -> cut -> partition

(** A timing fault (the seventh fault dimension; only the asynchronous
    executor observes it — the synchronous engine enforces lockstep by
    fiat and ignores timing entirely). During the window, node
    [s_node]'s per-pulse computation is stretched by [factor] in
    virtual time. [factor = 0] encodes a stall: bounded stalls are
    modeled as a 1000x slowdown (long enough to blow any realistic
    pulse deadline, still finite so undeadlined runs terminate), and an
    unbounded stall ([s_until = None]) stops the node outright — the
    asynchronous executor treats it like a crash-stop from [s_from] on,
    and the deadline-paced synchronizer cuts it so the run
    terminates. *)
type straggle = {
  s_node : int;
  s_from : int;  (** first pulse the window covers. *)
  s_until : int option;  (** [None] = forever; [Some u] = pulses < [u]. *)
  factor : int;  (** 0 = stall; >= 2 = slowdown multiplier. *)
}

(** [straggle ~from ?until ?factor node] builds a straggler window;
    [factor] defaults to [0] (stall). *)
val straggle : ?until:int -> ?factor:int -> from:int -> int -> straggle

type profile = {
  drop : float;  (** per-copy loss probability, in [0, 1). *)
  duplicate : float;  (** per-message duplication probability, in [0, 1). *)
  max_delay : int;  (** max extra rounds a copy may be held; >= 0. *)
  corrupt : float;  (** per-copy payload-corruption probability, in [0, 1). *)
  crashes : crash list;
  partitions : partition list;
  stragglers : straggle list;  (** per-node straggler windows. *)
  link_latency : int;
      (** max extra virtual-time units a copy (or ack) spends on the
          wire; >= 0. Pure latency: never changes which pulse a copy is
          delivered in, only when the synchronizer can declare the pulse
          safe. *)
  skew : int;  (** max per-node virtual-clock offset at pulse 0; >= 0. *)
}

(** [profile ()] builds a profile from the given dimensions; everything
    omitted defaults to zero or empty (the adversary does nothing).

    @raise Invalid_argument if a probability is outside [0, 1),
    [max_delay] is negative, a crash or partition window is inverted, or
    a partition cut is empty or contains a self-loop link. *)
val profile :
  ?drop:float ->
  ?duplicate:float ->
  ?max_delay:int ->
  ?corrupt:float ->
  ?crashes:crash list ->
  ?partitions:partition list ->
  ?stragglers:straggle list ->
  ?link_latency:int ->
  ?skew:int ->
  unit ->
  profile

(** The fate of one surviving message copy: held [extra] extra rounds
    ([0] = normal next-round delivery), payload garbled iff [corrupt]. *)
type fate = { extra : int; corrupt : bool }

type t

(** [create ~seed p] instantiates the adversary. Two adversaries with the
    same seed and profile make identical decisions when consulted in the
    same order. *)
val create : ?seed:int -> profile -> t

(** [begin_run t] announces that a new [Engine.run] is starting; the
    engine calls it once per run. Scripted deciders use the resulting
    run index to section their schedule (rounds restart at 0 each
    run); for {!create}d adversaries it is a no-op. *)
val begin_run : t -> unit

val profile_of : t -> profile

(** [seed_of t] — the seed the timing hashes draw from (the recorded
    seed for {!of_replay} adversaries); recorded in the [Timing] trace
    event so replay reconstructs the virtual-time schedule. *)
val seed_of : t -> int

(** [plan t ~round ~src ~dst] decides the fate of one message sent on link
    [src -> dst] at [round]: one {!fate} per copy to deliver. [[]] means
    the message is dropped; a two-element list means it was duplicated.
    The engine consults {!link_down} {e first} and never calls [plan]
    for a send on a severed link (so partition drops consume no
    randomness and replay deterministically). *)
val plan : t -> round:int -> src:int -> dst:int -> fate list

(** [crashed t ~round v] — is [v] down at [round]? *)
val crashed : t -> round:int -> int -> bool

(** [crash_stopped t ~round v] — is [v] down at [round] with no scheduled
    restart? The engine excludes such nodes from its liveness check so
    crash-stop schedules cannot livelock an execution. *)
val crash_stopped : t -> round:int -> int -> bool

(** [eventually_down t v] — does some crash-stop window take [v] down
    permanently at {e some} round? Connectivity oracles use this (with
    {!severed}) to compute the true surviving component. *)
val eventually_down : t -> int -> bool

(** [restarted t ~round v] — does [v] come back up at exactly [round]
    from an [Amnesia] window (and is not covered by another crash window
    at [round])? The engine resets such a node's state at the start of
    that round. Freeze windows never report here: their restart is
    state-preserving and needs no engine action. *)
val restarted : t -> round:int -> int -> bool

(** [amnesia_in_progress t ~round] — is some node inside an [Amnesia]
    window (down now, or restarting exactly this round)? The engine keeps
    the execution alive through such outages — up to and including the
    restart round — so the scheduled restart, and any recovery protocol
    it triggers, actually runs instead of the run quiescing with the
    node's fate unresolved. (A window whose [from_round] is never reached
    because the run ended earlier is a no-op.) *)
val amnesia_in_progress : t -> round:int -> bool

(** [link_down t ~round ~src ~dst] — is the (undirected) link [src - dst]
    severed by some active partition window at [round]? Checked by the
    engine before {!plan} for every send. *)
val link_down : t -> round:int -> src:int -> dst:int -> bool

(** [severed t ~src ~dst] — is the link [src - dst] cut by a partition
    that never heals? The building block of the centralized connectivity
    oracle ({!Detector.oracle}). *)
val severed : t -> src:int -> dst:int -> bool

(** {2 Timing adversary}

    Timing draws are pure hashes of the adversary's seed and the draw's
    coordinates — not pulls on the profile's RNG stream. They are
    order-independent (the asynchronous executor consults them in event
    order, which differs from the synchronous send order), they leave
    {!plan}'s stream untouched (a synchronous run of the same profile is
    byte-identical with or without timing dimensions), and they replay
    from the seed alone. Only the asynchronous schedule of
    {!Engine.Make.run} consults them; identity timing enforces lockstep
    by fiat. *)

(** [timing_active t] — does the profile have any timing dimension
    (stragglers, link latency, or clock skew)? {!Engine.Make.run}
    executes such runs asynchronously. *)
val timing_active : t -> bool

(** [straggle_factor t ~round v] — the virtual-time stretch of node
    [v]'s computation at pulse [round]: 1 = nominal, [>= 2] = slowdown
    (1000 for a bounded stall), 0 = stalled forever. *)
val straggle_factor : t -> round:int -> int -> int

(** [stalled_forever t ~round v] — is [v] inside an unbounded stall
    window at [round]? The asynchronous executor treats such a node as
    crash-stopped: it neither steps nor sends, and copies addressed to
    it are dropped. *)
val stalled_forever : t -> round:int -> int -> bool

(** [eventually_stalled t v] — does some unbounded stall window
    eventually stop [v]? The asynchronous analogue of
    {!eventually_down}, consulted by {!Detector.oracle} when the run
    executes asynchronously. *)
val eventually_stalled : t -> int -> bool

(** [skew_of t v] — node [v]'s virtual-clock offset at pulse 0, drawn
    uniformly from [0..skew]. *)
val skew_of : t -> int -> int

(** [latency t ~round ~src ~dst ~leg] — extra virtual-time units the
    [leg]-th wire crossing of the [src -> dst] transmission at pulse
    [round] spends in flight, drawn uniformly from [0..link_latency].
    [leg] separates the draws for the data copy, its acknowledgement
    and the SAFE fan-out so they are independent. *)
val latency : t -> round:int -> src:int -> dst:int -> leg:int -> int

(** {2 Trace windows}

    A faulty run's trace opens with the profile's static part, so
    replay can rebuild the adversary from the trace alone. *)

(** [window_events t ~n] — the events that describe [t]'s static part
    on an [n]-node network: one [Crash_window], [Partition_window] and
    [Straggle_window] per window, in profile order, then, when
    {!timing_active} holds, one [Timing] with the timing seed and one
    [Skew] per node whose clock offset is nonzero. The engine emits
    them after each faulty [Run_start]. *)
val window_events : t -> n:int -> Repro_obs.Event.t list

(** [of_replay r] is an adversary that replays the recorded trace [r]
    instead of rolling dice. Its windows, timing statics and seed are
    read back from {!Repro_obs.Replay.windows} (the events
    {!window_events} wrote); its per-copy delivery schedule is
    {!Repro_obs.Replay.plan}. The schedule is consulted for every send
    exactly like {!plan}, additionally keyed by which engine run of the
    process is asking (see {!begin_run}); the engine re-applies
    partition drops itself, so the schedule is never consulted about a
    severed send. Used by [--replay]; the random dimensions of the
    profile are all zero.

    The timing dimensions replay from the recorded seed alone: timing
    draws are pure hashes of the seed (see {!latency}), so restoring it
    reproduces the exact virtual-time schedule without any recorded
    per-copy data.

    @raise Invalid_argument if a recorded window is invalid (as
    {!profile}). *)
val of_replay : Repro_obs.Replay.t -> t

(** {2 CLI spec grammar}

    The [--crash], [--partition] and [--straggle] flag grammars live
    here, next to the types they build. Errors name the offending
    field (numbered from 1) and restate the grammar. *)

(** [parse_crash s] parses a [--crash] spec ([NODE:FROM[:UNTIL[:MODE]]],
    [MODE] in {freeze, amnesia}, default freeze; omitting [UNTIL] makes
    it a crash-stop). *)
val parse_crash : string -> (crash, string) result

(** [parse_partition s] parses a [--partition] spec: a cut (links
    [u-v[,u-v...]], or a vertex cut [@n[,n...]] severing every link of
    the listed nodes), down from round [FROM], healing at [HEAL] if
    given. *)
val parse_partition : string -> (partition, string) result

(** [parse_straggle s] parses a [--straggle] spec
    ([NODE:FROM[:UNTIL[:FACTOR]]]): node [NODE] straggles from pulse
    [FROM] until [UNTIL] (forever when omitted or empty), stretched by
    [FACTOR] (omitted or [0] = stall, [>= 2] = slowdown). *)
val parse_straggle : string -> (straggle, string) result

val pp : Format.formatter -> t -> unit
