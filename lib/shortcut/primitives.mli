(** The subgraph-operation toolbox of Appendix A (Lemma 8, Corollaries 2
    and 3) and the random-delay scheduling bound (Theorem 6).

    Each operation is either executed for real on top of {!Pa.aggregate}
    (SLE) or executed with the simulator's global view while charging the
    round cost the paper's own reduction prescribes, instantiated with
    {e measured} dilation/congestion of the concrete parts (DESIGN.md
    Section 3, "primitive-accounted"). *)

(** Measured charge basis: BFS-tree depth and per-edge part congestion. *)
type basis = { depth : int; max_load : int; n : int }

(** [basis ?tree parts ~metrics] measures the charge basis of a
    collection on [tree], a root-0 BFS tree of the skeleton. Without
    [tree] it first floods one with {!Repro_congest.Bfs_tree.build},
    charged to [metrics] — a full message-level run per call, so callers
    inside loops must build the tree once ({!charge_tree}) and pass it. *)
val basis :
  ?tree:Repro_congest.Bfs_tree.tree ->
  Part.t ->
  metrics:Repro_congest.Metrics.t ->
  basis

(** [charge_tree g] floods the root-0 BFS tree of [g]'s skeleton on
    throwaway metrics. Tree-restricted shortcuts are defined relative to
    one fixed spanning tree, so a decomposition or matching run measures
    every basis on the one tree this returns. *)
val charge_tree : Repro_graph.Digraph.t -> Repro_congest.Bfs_tree.tree

val ceil_log2 : int -> int

(** Lemma 8 operation (RST / STA / SLE / CCD / single-message BCT):
    Õ(1) invocations of PA and SNC; charged [ceil_log2 n] PA rounds,
    each 2 (depth + congestion) rounds (up + down phase). *)
val lemma8_rounds : basis -> int

(** Corollary 3, BCT(h): h-message broadcast per part; pipelined charge
    [2 depth + h * max_load] rounds. *)
val bct_rounds : basis -> h:int -> int

(** Corollary 2, MVC(h,t): h vertex-cut instances with cut cap [t]:
    charge [t (2 depth) + h t max_load] rounds (the paper's
    Õ(t tau D + h t tau) with measured quantities). *)
val mvc_rounds : basis -> h:int -> t:int -> int

(** Theorem 6 (random-delay scheduling): running algorithms with
    dilations [d_i] and congestions [c_i] together costs
    [max d_i + sum c_i] rounds. *)
val schedule : (int * int) list -> int

(** Subgraph leader election, executed for real as one PA with [min]:
    returns the smallest candidate id per part ([max_int] if the part has
    no candidate). Charged at the measured PA cost. *)
val elect :
  ?tree:Repro_congest.Bfs_tree.tree ->
  Part.t ->
  candidate:(int -> bool) ->
  metrics:Repro_congest.Metrics.t ->
  label:string ->
  int array

(** Connected-component detection (CCD) for the masked subgraph: returns
    per-vertex component labels ([-1] outside the mask) and the component
    count; charges Lemma 8 rounds measured on the resulting components. *)
val components :
  Repro_graph.Digraph.t ->
  mask:bool array ->
  metrics:Repro_congest.Metrics.t ->
  label:string ->
  int array * int

(** {1 Dilation/congestion cost tracking}

    Running N independent primitive sequences in parallel is priced by
    Theorem 6 as [max dilation + total congestion]. Algorithms that are
    later scheduled in parallel (e.g. the per-component separator
    computations of the tree-decomposition recursion) therefore account
    dilation and congestion separately in a {!cost} record. *)

type cost = { mutable dilation : int; mutable congestion : int }

val cost_zero : unit -> cost

(** [inv] PA invocations on a collection with charge basis [b]. *)
val cost_pa : cost -> basis -> inv:int -> unit

(** One Lemma 8 operation ([ceil_log2 n] PA invocations). *)
val cost_lemma8 : cost -> basis -> unit

(** Corollary 3 BCT(h). *)
val cost_bct : cost -> basis -> h:int -> unit

(** Corollary 2 MVC(h,t). *)
val cost_mvc : cost -> basis -> h:int -> t:int -> unit

(** Total rounds of a single cost when run alone. *)
val cost_rounds : cost -> int

(** Combined rounds for parallel executions over vertex-disjoint regions:
    their traffic occupies disjoint edge sets, so per-edge congestion does
    not accumulate — [max dilation + max congestion]. *)
val schedule_disjoint : cost list -> int
