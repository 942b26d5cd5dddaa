(** Distributed BFS-tree construction (message-level).

    Classic flooding: the root announces distance 0; every node adopts the
    smallest announced distance + 1 and the smallest-id sender at that
    distance as its parent. Takes eccentricity(root) + O(1) rounds. *)

type tree = {
  root : int;
  parent : int array;  (** [parent.(root) = root]; [-1] if unreachable. *)
  dist : int array;  (** hop distance from the root. *)
  depth : int;  (** max distance over reachable vertices. *)
}

(** [build skeleton ~root ~metrics] runs the flood on the communication
    graph and returns the tree. Rounds are charged under ["bfs-tree"].

    [faults] injects link/node faults ({!Fault}); [reliable] (default
    false) runs the same step function over the acknowledged
    {!Transport} instead of raw links, restoring exact distances under
    any drop probability < 1; [recovery] additionally runs it under the
    checkpoint/recovery layer ({!Recovery}, implies the transport), so
    distances stay exact even across crash-amnesia restarts. *)
val build :
  ?faults:Fault.t ->
  ?reliable:bool ->
  ?recovery:Recovery.config ->
  Repro_graph.Digraph.t ->
  root:int ->
  metrics:Metrics.t ->
  tree

(** [build_certified skeleton ~root ~metrics] runs the flood over the
    reliable transport under a heartbeat failure {!Detector} and also
    returns the detector's verdict: [Complete] when no node ended up
    suspecting a neighbor (the tree covers the whole graph), or
    [Partial] with the certified reachable component (the tree is exact
    on it; everything else has distance inf). This is the degraded-mode
    connectivity probe the CLIs run under permanent partitions or
    crash-stops. [period]/[timeout]/[max_retries] tune the detector and
    the transport's retry budget ({!Detector.Make.run}). *)
val build_certified :
  ?faults:Fault.t ->
  ?jitter_seed:int ->
  ?period:int ->
  ?timeout:int ->
  ?max_retries:int ->
  Repro_graph.Digraph.t ->
  root:int ->
  metrics:Metrics.t ->
  tree * Detector.verdict
