(** Flooding broadcast, tree convergecast, and pipelined streaming
    (message-level building blocks for the subgraph operations of
    Appendix A of the paper). *)

(** Each primitive optionally takes a fault adversary ([faults], {!Fault})
    and a [reliable] switch (default false) that reruns the identical step
    function over the acknowledged {!Transport} instead of raw links. *)

(** [flood skeleton ~root ~value ~metrics] floods a one-word [value];
    returns what every node learned. O(D) rounds, label ["flood"].
    [recovery] runs it under the checkpoint/recovery layer ({!Recovery},
    implies the transport), so the flood completes exactly even across
    crash-amnesia restarts. *)
val flood :
  ?faults:Fault.t ->
  ?reliable:bool ->
  ?recovery:Recovery.config ->
  Repro_graph.Digraph.t ->
  root:int ->
  value:int ->
  metrics:Metrics.t ->
  int array

(** [convergecast tree ~op ~values ~metrics] aggregates one word per node
    up the BFS tree with associative [op]; returns the root's aggregate.
    O(depth) rounds, label ["convergecast"]. *)
val convergecast :
  ?faults:Fault.t ->
  ?reliable:bool ->
  Bfs_tree.tree ->
  op:(int -> int -> int) ->
  values:int array ->
  metrics:Metrics.t ->
  int

(** [stream_down tree ~items ~metrics] pipelines one-word [items] from
    the root to every node (depth + |items| rounds, label ["stream"]);
    returns, per node, the items it received since its last boot, in
    arrival order. The root's entry is [items], and a fault-free run
    gives every node [items]. Per-link FIFO of {!Transport} preserves
    item order under faults.

    A node's state is one [int] buffer that is both its received log
    and its forwarding queue. It is sized to |items|, doubles when
    duplicated copies overflow it, and is built by [init] at every
    boot: a node restarted with amnesia starts from an empty buffer
    (the root from a fresh copy of [items]), forgets what it received
    and forwarded before, and reports only what arrived after. *)
val stream_down :
  ?faults:Fault.t ->
  ?reliable:bool ->
  Bfs_tree.tree ->
  items:int array ->
  metrics:Metrics.t ->
  int array array
