(** Critical-path analysis over recorded traces.

    Builds the message-dependency DAG of a run (a send from [v]
    depends on every earlier delivery to [v]) and reports the heaviest
    dependency chain, weighted in rounds: a hop costs
    [deliver_round - send_round], so adversary-delayed copies and
    retransmissions that only landed on a later attempt stretch the
    chain by the rounds they actually spent in flight. The chain
    weight lower-bounds the makespan of the recorded execution — the
    measured "dilation" term of the dilation+congestion framework —
    and on a fault-free trace equals the chain length. Also reported:
    per-node slack (distance off the critical path), idle time, the
    most congested directed edges, and — on asynchronous traces
    carrying [Pulse]/[Safe]/[Straggle] events — pulse-duration
    percentiles and the straggler tail. *)

type link = { send_round : int; src : int; dst : int; deliver_round : int }

type report = {
  label : string;
  faulty : bool;
  rounds : int;
  nodes : int;
  sends : int;
  delivered : int;
  dropped : int;
  retransmits : int;
  bound : int;  (** makespan lower bound in rounds (chain weight) *)
  chain : link list;  (** heaviest dependency chain, causal order *)
  slack : (int * int) list;
      (** (node, [bound] minus the heaviest chain ending at the node),
          most critical first — slack 0 is on the critical path *)
  idle : (int * int) list;  (** (node, idle rounds), worst first *)
  congested : (int * int * int * int) list;
      (** (src, dst, total words, sends), heaviest first *)
  pulses : int;  (** async pulses observed; 0 on synchronous traces *)
  pulse_p50 : int;  (** pulse duration percentiles, vt units *)
  pulse_p99 : int;
  pulse_max : int;
  straggle_tail : (int * int * int) list;
      (** (node, straggled pulses, worst pulse duration in vt units),
          worst first: the straggler tail of an asynchronous run *)
}

val chain_length : report -> int

val analyze_all : ?top:int -> Event.t list -> report list
(** One report per [Run_start] section of the trace. [top] bounds the
    slack/idle/congested/straggler lists (default 5). *)

val pp_report : Format.formatter -> report -> unit
