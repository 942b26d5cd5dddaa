(** Heartbeat failure detection and certified degraded-mode verdicts.

    Wraps the reliable {!Transport} with a timeout-based failure
    detector: every [period] rounds each node sends a 1-word heartbeat
    on links its user traffic is not already proving live, and a node
    that hears {e nothing} on a link for [timeout] consecutive rounds
    (default [3 * period]) starts {e suspecting} the peer — surfaced to
    the algorithm through a [suspected] predicate passed to its [step]
    function, so it can stop waiting on partitioned or crash-stopped
    neighbors instead of hanging. Anything arriving on the link (beat
    or data — corrupt packets never get this far, the transport rejects
    them) clears the suspicion again, so a healed partition recovers.

    {b Timing.} Suspicion latency for a link cut at round [c] is at
    most [c' - c <= timeout] rounds from the last delivery, i.e. at
    most [3 *] the heartbeat period with the default timeout — the
    bound the E-F3 experiment measures. False suspicions are possible
    (it is an unreliable detector in the Chandra–Toueg sense): a
    retransmission storm can delay beats past [timeout]; the default
    [timeout = 3 * period >= period + 2] leaves one full
    retransmission cycle of slack at the transport's 4-round timeout.

    {b Quiescence.} Heartbeating forever would never terminate, so each
    node keeps a {e watch} counter, re-armed by user-level activity
    (its own [active] flag, or any user message sent or received) and
    run down by silence; beats do {e not} re-arm it. A node stops
    beating and suspecting once its watch expires
    ([timeout + 2 * period] rounds after the neighborhood's user
    traffic ends) — but keeps answering incoming beats with a 1-word
    pong, so a neighbor whose user layer stays busy longer never
    mistakes the stand-down for a partition. Pongs never trigger a
    reply of their own, so two stood-down nodes cannot keep each other
    awake and global quiescence is reached one watch-length after the
    last user message.

    {b Verdicts.} After the run, per-node suspect lists either are all
    empty ([Complete] — the result is exact everywhere) or induce a
    certified reachable component ([Partial]): nodes connected to the
    root by links neither endpoint suspects. The soundness caveat is
    one-sided by design: a [Partial] verdict's reachable set may
    under-approximate the truly-connected component (false suspicion
    under extreme delay), but under the fault profiles here it matches
    the centralized {!oracle} — which the CLIs check. *)

type verdict =
  | Complete  (** no node suspects any neighbor; outputs are exact everywhere *)
  | Partial of { reachable : bool array; suspected : (int * int) list }
      (** [reachable] is the certified component of the root;
          [suspected] lists (suspector, suspect) pairs, sorted. *)

(** [oracle ?faults ?async skeleton ~root] is the centralized ground
    truth a [Partial] verdict is validated against: the component of
    [root] after removing permanently severed links ({!Fault.severed})
    and crash-stopped nodes ({!Fault.eventually_down}). When [async]
    (default false: the run executes on the asynchronous substrate),
    unbounded stall windows ({!Fault.eventually_stalled}) count as
    crash-stops too. With no faults (or only healing/transient ones)
    every node is reachable. *)
val oracle :
  ?faults:Fault.t -> ?async:bool -> Repro_graph.Digraph.t -> root:int -> bool array

val pp_verdict : Format.formatter -> verdict -> unit

module Make (M : Engine.MSG) : sig
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  type 'st result = {
    states : 'st array;
    suspects : int list array;  (** per node, sorted ids of suspected neighbors *)
  }

  (** Same contract as {!Transport.Make.run} except [step] additionally
      receives [suspected : int -> bool], the node's current local
      suspect list (queries on non-neighbors are a contract violation),
      an amnesia-restarted node re-runs [init], and user messages are
      capped at {!Engine.default_max_words}, plus:

      - [period] — heartbeat period in rounds (>= 2; default 4);
      - [timeout] — rounds of per-link silence before suspicion
        (default [3 * period]; must exceed [period + 2]).

      Heartbeats and suspicions are charged to the shared [metrics]
      ({!Metrics.Suspicions}, plus ordinary message/word charges
      for beats — degraded-mode detection is not free). *)
  val run :
    Repro_graph.Digraph.t ->
    init:(int -> 'st) ->
    step:
      (round:int -> node:int -> suspected:(int -> bool) -> 'st -> inbox -> 'st * outbox) ->
    active:('st -> bool) ->
    ?faults:Fault.t ->
    ?jitter_seed:int ->
    ?max_retries:int ->
    ?period:int ->
    ?timeout:int ->
    metrics:Metrics.t ->
    label:string ->
    unit ->
    'st result

  (** [verdict result skeleton ~root] derives the verdict from
      [result.suspects]: [Complete] when every list is empty, otherwise
      the root's component over links neither endpoint suspects. *)
  val verdict : 'st result -> Repro_graph.Digraph.t -> root:int -> verdict
end
