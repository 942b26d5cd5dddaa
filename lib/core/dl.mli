(** Distance-labeling construction (Section 4.2, Theorem 2).

    Bottom-up recursion over a tree decomposition: leaves gather their
    whole subgraph and solve APSP locally; an internal node [x] forms the
    auxiliary graph [H_x] on its bag (edge costs = min of the direct
    G-edge and the child-level distances, Lemmas 3-4), broadcasts it
    inside [G_x] (charged as BCT(h), Corollary 3), and every vertex of
    [G_x] extends its distance set to the bag [B_x] through the gateway
    anchors it learned at the child level.

    Works for {e any} valid tree decomposition of the input graph: the
    adhesion property [B_x cap V(G_child) subseteq B_child] needed by the
    update holds for every valid decomposition. *)

(** [build g dec ~metrics] returns exact distance labels for the weighted
    directed (or undirected) graph [g]. Rounds charged per level under
    ["dl/level"], and per level the flood of the root-0 BFS tree every
    level's basis is measured on (["bfs-tree"]; flooded once per build,
    so a trace holds one run of it). *)
val build :
  Repro_graph.Digraph.t ->
  Repro_treedec.Decomposition.t ->
  metrics:Repro_congest.Metrics.t ->
  Labeling.t array

(** [max_label_words labels] is the largest label size in words —
    the quantity Theorem 2 bounds. *)
val max_label_words : Labeling.t array -> int
