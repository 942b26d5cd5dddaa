(** The auxiliary product graph G_C of Section 5.2 (Lemma 5).

    Vertex (v, q) of G_C is encoded as [v * q_size + q]. Edges:
    condition (1) — for every G-edge e = (u,v) and state i, an edge
    ((u,i), (v, delta_e(i))) of e's weight, labeled with e's id (so
    product walks map back to G walks); for undirected G each edge
    contributes both traversal directions. Condition (2) — zero-weight
    "drop to bot" edges (u,i)->(u,bot), which keep the skeleton diameter
    O(D) without affecting C(q)-distances for q <> bot.

    G_C is always directed (state transitions are directional). *)

type t = {
  graph : Repro_graph.Digraph.t;  (** the original graph G *)
  product : Repro_graph.Digraph.t;  (** G_C *)
  spec : Stateful.t;
  p_max : int;  (** edge multiplicity of G (Theorem 3's overhead factor) *)
}

val build : Repro_graph.Digraph.t -> Stateful.t -> t

(** [encode t v q] is the product vertex (v, q). *)
val encode : t -> int -> int -> int

(** [overhead t] is the CONGEST simulation overhead factor |Q| * p_max
    for running algorithms on G_C over the network of G (Section 5.2). *)
val overhead : t -> int

(** [constrained_distance t ~q ~src ~dst] is the shortest weighted length
    of a walk from [src] to [dst] with final state [q] — computed
    centrally by Dijkstra on G_C (Lemma 5); the oracle the CDL labels are
    verified against. *)
val constrained_distance : t -> q:int -> src:int -> dst:int -> int

(** [shortest_constrained_walk t ~q ~src ~dst] is [Some edge-ids] (in G)
    of a minimum-weight walk reaching [dst] with state [q], or [None]. *)
val shortest_constrained_walk : t -> q:int -> src:int -> dst:int -> int list option

(** [lift_decomposition t dec] turns a tree decomposition of G into one
    of G_C by replacing each bag vertex v with U_Q(v) (Section 5.2);
    width is multiplied by |Q|. *)
val lift_decomposition : t -> Repro_treedec.Decomposition.t -> Repro_treedec.Decomposition.t
