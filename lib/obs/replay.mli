(** Deterministic record/replay schedules.

    Within one [Engine.run] the triple (send_round, src, dst)
    uniquely keys each adversary consultation (the engine forbids two
    same-direction messages per link per round), so a trace captures
    the complete delivery schedule. [of_events] rebuilds it: per
    faulty run, each recorded [Send] opens a fate; each [Deliver],
    receiver-down [Drop], straggler-cut [Drop] or garbled [Drop] adds
    one surviving copy's extra delay; [Corrupt] events mark which
    copies were garbled in flight; an empty fate is a link drop.
    Partition windows are deterministic and re-applied by the engine
    itself, so severed sends have no recorded fate. The profile's
    static part travels as the window events [Fault.window_events]
    writes at each faulty [Run_start]; {!windows} returns them, and
    [Fault.of_replay] reads them back and feeds {!plan} to a scripted
    adversary, which reproduces the recorded run exactly. *)

exception Divergence of string
(** Raised when the replayed execution consults the adversary about a
    send the trace never recorded (the code under replay diverged from
    the recorded code), when it starts more faulty runs than the trace
    contains, or when the trace's [Corrupt] events do not match its
    deliveries. *)

type t

val of_events : Event.t list -> t

val runs : t -> int
(** Number of faulty run sections in the trace. *)

val windows : t -> Event.t list
(** The first faulty run's [Crash_window], [Partition_window],
    [Straggle_window] and [Timing] events, in trace order (one
    adversary serves every run of a CLI invocation, so every faulty
    run repeats them identically); [[]] when no run was faulty. *)

val plan : t -> run:int -> round:int -> src:int -> dst:int -> (int * bool) list
(** The recorded fate of the given send: per surviving copy, its extra
    delay and whether it was corrupted in flight, sorted (canonical
    order among indistinguishable duplicates); [[]] means the copy was
    dropped on the wire. Raises {!Divergence} if the trace has no
    entry. *)
