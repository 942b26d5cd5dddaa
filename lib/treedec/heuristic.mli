(** Centralized tree-decomposition heuristics.

    Used as (i) a baseline against the distributed algorithm of Theorem 1
    and (ii) local computation inside CONGEST nodes once a subgraph has
    been gathered. Min-fill is the standard strong heuristic; degeneracy
    gives a treewidth lower bound, so experiments can bracket the true
    treewidth of generated instances. *)

(** [min_degree_order g] is an elimination order by smallest degree. *)
val min_degree_order : Repro_graph.Digraph.t -> int array

(** [of_order g order] is the tree decomposition induced by an
    elimination order (bags are the elimination cliques). Always valid;
    width depends on the order quality. *)
val of_order : Repro_graph.Digraph.t -> int array -> Decomposition.t

(** [min_fill g] is [of_order g] of the elimination order chosen by
    smallest fill-in (ties by degree). *)
val min_fill : Repro_graph.Digraph.t -> Decomposition.t

(** [degeneracy g] is the graph degeneracy — a lower bound on treewidth. *)
val degeneracy : Repro_graph.Digraph.t -> int

(** [treewidth_upper g] is the smaller of the min-fill and min-degree
    decomposition widths. *)
val treewidth_upper : Repro_graph.Digraph.t -> int
