(** Exact bipartite maximum matching (Section 6, Theorem 4).

    Divide and conquer over balanced separators: recursively match the
    connected components of G - S in parallel, then re-insert the
    separator vertices one at a time; by Proposition 1 (Iwata et al.),
    each insertion requires at most one augmenting path, starting at the
    inserted vertex. Augmenting paths are shortest 2-colored walks
    (color = matched / unmatched) found through CDL(colored-2) built on
    the whole graph with excluded vertices' edges priced at a huge weight
    (the paper's "cost infinity" trick), so sibling components share one
    CDL construction per step.

    Two costing modes:
    - [`Faithful] physically runs the CDL construction of Theorem 3 for
      every augmentation step (small inputs, tests);
    - [`Charged] runs it once per recursion node and charges the measured
      cost for each subsequent step (benchmarks). Both modes compute the
      same matching. *)

type mode = [ `Faithful | `Charged ]

type result = {
  mate : int array;  (** mate per vertex, -1 if unmatched *)
  size : int;
  augmentations : int;  (** total augmenting-path searches *)
  levels : int;  (** recursion depth *)
}

(** [run ?mode ?seed g ~metrics] computes a maximum matching of
    the undirected bipartite graph [g]. Edge weights are ignored
    (unweighted matching). @raise Invalid_argument if not bipartite. *)
val run :
  ?mode:mode ->
  ?seed:int ->
  Repro_graph.Digraph.t ->
  metrics:Repro_congest.Metrics.t ->
  result

(** The baseline of [AKO18]-style sequential augmentation: one
    augmenting-path phase per matched edge, each a global BFS charged at
    Omega(diameter) rounds — Õ(s_max) total. Used by experiment E4b. *)
val sequential_baseline :
  Repro_graph.Digraph.t -> metrics:Repro_congest.Metrics.t -> result
