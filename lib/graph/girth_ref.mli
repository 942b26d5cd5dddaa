(** Centralized exact weighted girth (reference oracle for Theorem 5).

    The girth is the minimum total weight of a simple cycle;
    [Digraph.inf] when the graph is acyclic. Parallel edges form
    2-vertex cycles in both the directed and undirected settings;
    self-loops count as cycles of their own weight. *)

(** [girth g] dispatches on [Digraph.directed g]. *)
val girth : Digraph.t -> int
