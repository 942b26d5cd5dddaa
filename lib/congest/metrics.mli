(** Communication-cost accounting for simulated CONGEST executions.

    Every algorithm in this repository reports its cost through a
    [Metrics.t]: total rounds, total messages, and a labeled breakdown so
    experiments can attribute rounds to phases (e.g. ["sep/mvc"],
    ["dl/broadcast-Hx"]). Message-level simulations add measured values;
    primitive-accounted reductions (DESIGN.md Section 3) add charges
    computed from measured dilation/congestion. *)

type t

(** The counters kept next to [rounds], in the order {!to_json} prints
    them. Each is a sum of {!add_count} charges except [Virtual_time]. *)
type counter =
  | Messages  (** point-to-point messages. *)
  | Words
      (** machine words of accepted message payload (charged by the
          engine per send, after the bandwidth check). *)
  | Delivered
      (** message copies actually placed in an inbox. Without faults
          [delivered = messages]; under a fault adversary [messages +
          duplicated = delivered + dropped] once no copy is in flight —
          the conservation law the engine's audit mode enforces. *)
  | Dropped
      (** messages destroyed by a fault adversary (lost on a link, or
          addressed to a crashed node). *)
  | Duplicated  (** extra message copies injected by a fault adversary. *)
  | Retransmissions
      (** retransmissions performed by a reliable transport layer
          ({!Transport}). *)
  | Corrupted
      (** message copies whose payload the fault adversary garbled in
          flight. A corrupted copy still counts as delivered (or dropped,
          if the raw engine discards it as undecodable garbage) for the
          conservation law. *)
  | Rejected
      (** packets a transport integrity layer refused on receipt because
          their checksum failed ({!Transport}). "Zero corrupted payloads
          accepted" means every corrupted copy that reached a live node
          is rejected: [rejected] accounts them. *)
  | Suspicions
      (** suspicion transitions raised by a failure detector
          ({!Detector}): node [v] started suspecting neighbor [u].
          Clearing a suspicion is not a charge. *)
  | Link_failures
      (** links a transport declared dead after exhausting its
          retransmission budget ({!Transport}'s [max_retries] cap):
          outstanding and queued traffic on the link was abandoned. *)
  | Checkpoints
      (** checkpoints written to simulated per-node stable storage by a
          {!Recovery} layer. Checkpoints cost no network traffic — they
          are charged separately from [Messages]/[Words] so the engine's
          traffic-conservation audit is undisturbed. *)
  | Checkpoint_words
      (** machine words of serialized state written across checkpoints
          (the storage-bandwidth analogue of [Words]). *)
  | Recoveries
      (** crash-amnesia restarts that reloaded state from stable storage
          (or re-ran [init] when no checkpoint existed). *)
  | Resync_rounds
      (** node-rounds spent between a restart and having heard back from
          every neighbor of the restarted node (the HELLO/RESYNC
          handshake window). *)
  | Pulses
      (** synchronizer pulses begun (one per live node per logical round
          under the asynchronous executor). Pulses are control overhead:
          they are charged separately from [rounds] so the user-level
          cost of a run is identical between the synchronous engine and
          the synchronizer. *)
  | Safe_messages
      (** SAFE notifications fanned out by the α-synchronizer (one per
          live neighbor per completed pulse) — control traffic charged
          separately from [Messages]/[Words]. *)
  | Straggles
      (** node-pulses executed under an active straggler window (slowed
          or stalled). *)
  | Virtual_time
      (** the virtual-time makespan: a high-water mark, not a sum —
          {!add_count} raises it to the charge if larger, and {!merge}
          takes the max across runs. *)
  | Cache_hits  (** hot-pair cache hits in the label server (lib/serve). *)
  | Cache_misses
      (** hot-pair cache misses (each one is a full label decode). *)
  | Cache_evictions  (** LRU evictions from the hot-pair cache. *)

(** Every counter, in declaration order. *)
val counters : counter list

(** [name c] is [c]'s JSON key, e.g. ["link_failures"]. *)
val name : counter -> string

val create : unit -> t

(** [add t ~label rounds] charges [rounds] communication rounds. *)
val add : t -> label:string -> int -> unit

(** [add_count t c k] records [k] more of counter [c] ([Virtual_time]:
    raises the high-water mark to [k] if larger). *)
val add_count : t -> counter -> int -> unit

val rounds : t -> int

(** [get t c] is the current value of counter [c]. *)
val get : t -> counter -> int

(** Named reads of the counters the benchmark harness ([bench/perf])
    reports, e.g. [messages t = get t Messages]. *)

val messages : t -> int
val retransmissions : t -> int
val pulses : t -> int
val recoveries : t -> int
val safe_messages : t -> int
val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int

(** [breakdown t] lists [(label, rounds)] aggregated per label,
    sorted by decreasing rounds. *)
val breakdown : t -> (string * int) list

(** [merge ~into src] adds all of [src]'s charges into [into]. *)
val merge : into:t -> t -> unit

(** [to_json ?name t] renders every counter plus the per-label
    breakdown as one flat JSON object (no trailing newline); [name]
    adds a leading ["name"] field. Machine-readable counterpart of
    {!pp}, used by the shared [--metrics-json] CLI flag. *)
val to_json : ?name:string -> t -> string

(** [pp] prints [rounds], [messages], every other nonzero counter in
    declaration order, then the per-label breakdown. *)
val pp : Format.formatter -> t -> unit
