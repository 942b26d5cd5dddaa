(** Virtual-time machinery of the α-synchronizer.

    {!Engine.Make.run} executes a run asynchronously when its fault
    profile has a timing dimension or {!forced} is set (the contract is
    documented there). This module holds the part of that execution
    that does not depend on the message type: the process-wide
    dials, and the per-run virtual-time state — a deterministic event
    queue of pulse starts, per-node step ends and SAFE points, inbox
    arrival high-water marks, and the α gate with its deadline strikes.

    Virtual time is dimensionless: one unit is one nominal node step
    and one nominal wire crossing. A straggler window stretches a step
    to [factor] units; per-link latency stretches a crossing to
    [1 + latency] units. All stretches are pure hashes of the timing
    seed ({!Fault.latency}), so the schedule replays from the seed
    alone and a synchronous run of the same profile is byte-identical
    with or without timing dimensions. *)

(** When true, {!Engine.Make.run} executes every run asynchronously
    even if the fault profile has no timing dimension (the [--async]
    CLI flag). Exactness tests rely on this to compare the two
    schedules on identical profiles. *)
val forced : bool ref

(** Pulse deadline in virtual-time units, [0] = off (the default: the
    pure α-synchronizer waits for every neighbor's SAFE forever). When
    positive, a node takes a strike against a neighbor whose
    contribution alone holds its pulse gate open more than
    [2 * deadline * 2^strikes] units past everything else it is
    waiting for (its own schedule, and the runner-up arrival and SAFE
    terms — a {e relative} criterion, so lag merely inherited from a
    straggler deeper in the graph cancels out instead of cascading
    cuts ring by ring; the doubling stops at [2^20]). After 3
    consecutive strikes the neighbor is cut: subsequent copies from it
    are dropped (reason [Straggler]), which starves the heartbeat
    {!Detector} into suspecting it so [run_certified] can excise it. *)
val deadline : int ref

(** {2 Per-run state}

    One pulse is one logical round. Each round the executor calls
    {!dispatch}, then {!commit}, then {!gate}; in between it reports
    every transmitted copy ({!transmit}) and every delivered one
    ({!arrived}). *)

type t

(** [start faults ~neighbors ~down ~metrics ~sink] is the state of one
    run over the network whose sorted neighbor lists are [neighbors],
    with every node's pulse 0 queued at its clock-skew offset. [down
    ~round v] says whether [v] is crashed or stalled at [round]; the
    pulse counters are charged to [metrics] and the virtual-time events
    ([Pulse], [Straggle], [Safe], [Straggler_cut]) go to [sink]. *)
val start :
  Fault.t option ->
  neighbors:int array array ->
  down:(round:int -> int -> bool) ->
  metrics:Metrics.t ->
  sink:Repro_obs.Sink.t ->
  t

(** [dispatch t ~round step] pops the pulse starts queued for [round]
    in virtual-time order (ties by node id) and calls [step v] for
    every node that is not down. *)
val dispatch : t -> round:int -> (int -> unit) -> unit

(** [transmit t ~round ~src ~dst ~copy] is the physical arrival time of
    the [copy]-th copy of [src]'s transmission to [dst]; its
    acknowledgement raises [src]'s SAFE point. *)
val transmit : t -> round:int -> src:int -> dst:int -> copy:int -> int

(** [arrived t ~src ~dst vt] records a copy from [src] placed in [dst]'s
    next inbox at physical time [vt]. *)
val arrived : t -> src:int -> dst:int -> int -> unit

(** [is_cut t ~src ~dst]: has [dst] cut [src] as a chronic straggler? *)
val is_cut : t -> src:int -> dst:int -> bool

(** [commit t ~round send] calls [send v] for the nodes that stepped this
    pulse, in ascending node order, then charges each one's SAFE
    fan-out. *)
val commit : t -> round:int -> (int -> unit) -> unit

(** [gate t ~round] computes every node's next pulse start (the α gate),
    takes deadline strikes and cuts, and queues the next pulse. *)
val gate : t -> round:int -> unit
