(** Weighted girth (Section 7, Theorem 5).

    Directed case: the length of the shortest cycle through edge (u,v) is
    w(u,v) + d(v,u); nodes exchange their distance labels across each
    edge (one exchange, label-size rounds, all edges in parallel) and the
    global minimum is aggregated over a BFS tree.

    Undirected case: a walk that "folds onto itself" must be excluded,
    which the paper does with exact count-1 walks (Lemma 6): assign each
    edge a random 0/1 label, build CDL(count-1), and let every node v
    compute g(v) = shortest exact-count-1 closed walk at v — always >= g,
    and = g when exactly one edge of some shortest cycle is labeled. The
    label probability is swept by doubling; repeated trials amplify the
    success probability.

    Modes: [`Faithful] runs the CDL construction per trial; [`Charged]
    runs it once and charges its measured cost per trial. Its per-trial
    values are computed centrally, without the product graph: for each
    labeled edge (a,b), a shortest b-a path in G minus the labeled edges,
    searched only as far as it can still beat the best value so far
    (DESIGN §3). The deterministic variant [`PerEdge] labels one edge at
    a time — m trials, each exact — and is used as a derandomized
    validation mode. *)

type mode = [ `Faithful | `Charged | `PerEdge ]

type result = {
  girth : int;  (** Digraph.inf when acyclic *)
  trials : int;  (** number of CDL constructions (or charges) performed *)
}

(** [directed ?dec g ~metrics] — exact girth of a directed weighted
    graph. [faults]/[reliable] apply to the message-level aggregation
    phases (BFS tree + convergecast) — see {!Repro_congest.Fault} and
    {!Repro_congest.Transport}. *)
val directed :
  ?dec:Repro_treedec.Decomposition.t ->
  ?seed:int ->
  ?faults:Repro_congest.Fault.t ->
  ?reliable:bool ->
  Repro_graph.Digraph.t ->
  metrics:Repro_congest.Metrics.t ->
  result

(** [undirected ?mode ?repeats ?dec g ~metrics] — girth of an undirected
    weighted graph; [repeats] is the per-scale trial count of the
    randomized modes (default [ceil_log2 n + 4]). The output is always an
    upper bound >= g (Lemma 6) and equals g with high probability
    ([`PerEdge]: with certainty). *)
val undirected :
  ?mode:mode ->
  ?repeats:int ->
  ?dec:Repro_treedec.Decomposition.t ->
  ?seed:int ->
  ?faults:Repro_congest.Fault.t ->
  ?reliable:bool ->
  Repro_graph.Digraph.t ->
  metrics:Repro_congest.Metrics.t ->
  result

(** [witness ?seed g ~metrics] additionally reconstructs a shortest
    cycle: [Some (girth, edge ids)] or [None] when acyclic. Uses the
    exact per-edge mode for the value, then extracts the cycle through
    the minimizing edge (charged like a walk extraction,
    Corollary 1). *)
val witness :
  ?seed:int ->
  Repro_graph.Digraph.t ->
  metrics:Repro_congest.Metrics.t ->
  (int * int list) option
