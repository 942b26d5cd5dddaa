(** Deterministic record/replay schedules.

    Within one [Engine.run] the triple (send_round, src, dst)
    uniquely keys each adversary consultation (the engine forbids two
    same-direction messages per link per round), so a trace captures
    the complete delivery schedule. [of_events] rebuilds it: per
    faulty run, each recorded [Send] opens a fate; each [Deliver],
    receiver-down [Drop], straggler-cut [Drop] or garbled [Drop] adds
    one surviving copy's extra delay; [Corrupt] events mark which copies were garbled in
    flight; an empty fate is a link drop. Partition windows are
    deterministic and re-applied by the engine itself, so severed
    sends have no recorded fate — {!partitions} reconstructs the
    windows from the static [Partition_window] events instead.
    Feeding {!plan} (plus {!crashes} and {!partitions}) to a scripted
    [Fault] adversary ([Fault.of_replay]) reproduces the recorded run
    exactly. *)

exception Divergence of string
(** Raised when the replayed execution consults the adversary about a
    send the trace never recorded (the code under replay diverged from
    the recorded code), when it starts more faulty runs than the trace
    contains, or when the trace's [Corrupt] events do not match its
    deliveries. *)

type crash_window = {
  node : int;
  from_round : int;
  until_round : int option;
  amnesia : bool;
}

type partition_window = {
  links : (int * int) list;
  nodes : int list;
  p_from_round : int;
  heal_round : int option;
}

type straggle_window = {
  s_node : int;
  s_from_round : int;
  s_until_round : int option;
  s_factor : int;
}

(** Continuous timing dimensions plus the seed their pure-hash draws
    key on — one [Timing] event replays the whole virtual-time
    schedule. *)
type timing = { link_latency : int; skew : int; timing_seed : int }

type t

val of_events : Event.t list -> t

val runs : t -> int
(** Number of faulty run sections in the trace. *)

val crashes : t -> crash_window list
(** Adversary crash windows, reconstructed from the first faulty run's
    [Crash_window] events (one adversary serves every run of a CLI
    invocation, so the windows repeat identically). *)

val partitions : t -> partition_window list
(** Adversary partition windows, reconstructed from the first faulty
    run's [Partition_window] events (same repetition argument). *)

val stragglers : t -> straggle_window list
(** Adversary straggler windows, reconstructed from the first faulty
    run's [Straggle_window] events. *)

val timing : t -> timing option
(** The recorded [Timing] event of the first faulty run, if the
    profile had a timing dimension. *)

val plan : t -> run:int -> round:int -> src:int -> dst:int -> (int * bool) list
(** The recorded fate of the given send: per surviving copy, its extra
    delay and whether it was corrupted in flight, sorted (canonical
    order among indistinguishable duplicates); [[]] means the copy was
    dropped on the wire. Raises {!Divergence} if the trace has no
    entry. *)
