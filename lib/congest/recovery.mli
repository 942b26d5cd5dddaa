(** Checkpoint/recovery layer: crash-amnesia survival with oracle-exact
    outputs (DESIGN.md "Crash recovery & stable storage").

    An [Amnesia] crash ({!Fault.mode}) loses all volatile state. This
    layer makes algorithms survive it anyway: every node periodically
    writes a serialized snapshot of its state to simulated per-node
    {e stable storage}; on restart the node reloads the last checkpoint
    (or re-runs [init] if none exists) and runs a bounded HELLO/RESYNC
    handshake with its neighbors — epoch-tagged at the transport layer —
    to recover the frontier lost between the checkpoint and the crash.

    The layer is sound for {e announcement-monotone} programs (the
    {!RECOVERABLE} contract below): BFS, Bellman-Ford, flooding — any
    program whose messages carry its current knowledge, where re-receiving
    an old announcement is harmless (idempotent relaxation), and where a
    later announcement to the same neighbor supersedes an earlier
    undelivered one. Under that contract, and the transport's conditions
    (drop < 1, no crash-stop), every run converges to the same output as
    a fault-free execution: whatever a restarted node forgot is
    re-derivable from its own re-announced checkpoint plus its neighbors'
    resync replies, inductively back to the program's sources.

    Costs are charged to {!Metrics.t}: [checkpoints] / [checkpoint_words]
    (storage writes — no network traffic, so the engine's
    traffic-conservation audit is undisturbed), [recoveries] (restarts
    served), and [resync_rounds] (node-rounds between a restart and
    having heard from every neighbor). A crash-free run with
    [checkpoint_every = 0] adds zero round overhead over plain
    {!Transport}: recovery emits no control messages and forwards data
    in the same round it is produced. *)

type config = { checkpoint_every : int  (** rounds between checkpoints; 0 disables. *) }

(** What a program must provide to run under recovery. *)
module type RECOVERABLE = sig
  module Msg : Engine.MSG

  type st

  val init : int -> st

  (** Same contract as {!Engine.Make.run}'s [step]; additionally the
      program must tolerate re-delivery of messages it already consumed
      before a crash (idempotent relaxation), and its messages must be
      announcements: a later message to the same neighbor supersedes an
      earlier undelivered one. *)
  val step : round:int -> node:int -> st -> (int * Msg.t) list -> st * (int * Msg.t) list

  val active : st -> bool

  (** [snapshot st] serializes [st] for stable storage; its length is
      the checkpoint's size in machine words (charged to
      [checkpoint_words]). *)
  val snapshot : st -> int array

  (** [restore ~node snap] rebuilds a state from a snapshot. The result
      must {e re-announce}: a restored node must re-offer everything it
      knows to its neighbors (e.g. BFS restores with [pending = true]),
      otherwise knowledge that only the crashed node held would never
      propagate again. *)
  val restore : node:int -> int array -> st

  (** [resync st] is the node's current announcement, offered to a
      recovering neighbor in reply to its Hello ([None] = nothing known
      yet). *)
  val resync : st -> Msg.t option
end

module Make (P : RECOVERABLE) : sig
  (** [run skeleton ~metrics ~label ()] executes [P] over the reliable
      {!Transport} with checkpointing every [checkpoint_every] rounds
      (default [0] = disabled) and full crash-amnesia recovery. Control
      messages (Hello, Resync) are multiplexed with user data on the same
      links, at most one message per neighbor per round, so the engine's
      bandwidth contract is preserved (user payloads are capped at
      {!Engine.default_max_words}). *)
  val run :
    Repro_graph.Digraph.t ->
    ?faults:Fault.t ->
    ?checkpoint_every:int ->
    metrics:Metrics.t ->
    label:string ->
    unit ->
    P.st array
end
