(** Weighted directed/undirected multigraphs.

    Vertices are integers [0 .. n-1]. Edges carry non-negative integer
    weights (the paper's cost function [c : E -> N]) and an optional
    integer label (used by stateful-walk constraints).

    A single type covers both orientations: when [directed g] is false,
    every edge is traversable in both directions and appears in the
    incidence lists of both endpoints. Multi-edges and self-loops are
    allowed, matching the multigraph setting of Section 5 of the paper. *)

type edge = { id : int; src : int; dst : int; weight : int; label : int }

type t

(** [create ~directed n spec] builds a graph on [n] vertices from
    [(src, dst, weight)] triples. Labels default to 0.
    @raise Invalid_argument on out-of-range endpoints or negative weight. *)
val create : directed:bool -> int -> (int * int * int) list -> t

(** [create_labeled ~directed n spec] is [create] with explicit
    [(src, dst, weight, label)] quadruples. *)
val create_labeled : directed:bool -> int -> (int * int * int * int) list -> t

(** [with_labels g f] is [g] with each edge's label replaced by [f e]. *)
val with_labels : t -> (edge -> int) -> t

(** [with_weights g f] is [g] with each edge's weight replaced by [f e]. *)
val with_weights : t -> (edge -> int) -> t

val n : t -> int

(** [m g] is the number of stored edges (each undirected edge counted once). *)
val m : t -> int

val directed : t -> bool
val edge : t -> int -> edge
val edges : t -> edge array

(** [out_edges g v] are the edge ids usable to leave [v]: edges with
    [src = v], plus, in the undirected case, edges with [dst = v]. *)
val out_edges : t -> int -> int array

(** [in_edges g v] are the edge ids usable to enter [v]. Equal to
    [out_edges g v] in the undirected case. *)
val in_edges : t -> int -> int array

(** [dst_of g e v] is the endpoint reached from [v] along edge [e].
    For directed graphs this is [e.dst]; for undirected edges it is the
    endpoint different from [v] (or [v] for a self-loop). *)
val dst_of : t -> edge -> int -> int

(** [neighbors g v] are the distinct vertices adjacent to [v] in the
    communication skeleton [[G]] (ignoring orientation and multiplicity,
    excluding [v] itself). *)
val neighbors : t -> int -> int array

(** [iter_adjacent g v f] calls [f] on the other endpoint of every edge
    incident to [v], in both orientations: a neighbor is repeated once
    per parallel edge and a self-loop yields [v]. Allocation-free
    counterpart of {!neighbors} for traversals that tolerate repeats. *)
val iter_adjacent : t -> int -> (int -> unit) -> unit

(** [skeleton g] is [[G]]: the simple undirected unweighted graph obtained
    by dropping orientation, multiplicity, self-loops and weights. This is
    the communication network of the CONGEST model (Section 2.1). *)
val skeleton : t -> t

(** [max_multiplicity g] is the maximum number of parallel edges between
    any unordered vertex pair ({i p_max} in Theorem 3). *)
val max_multiplicity : t -> int

(** [induced g vs] is the subgraph induced by vertex set [vs], together
    with [old_of_new] (vertex of [g] for each new vertex) and [new_of_old]
    (new id per old vertex, [-1] when absent). Edges keep weights/labels. *)
val induced : t -> int list -> t * int array * int array

(** [reverse g] flips every edge's orientation (identity when undirected). *)
val reverse : t -> t

(** [total_weight g] is the sum of all edge weights. *)
val total_weight : t -> int

(** [pp] prints a short human-readable summary. *)
val pp : Format.formatter -> t -> unit

(** Distance value used as infinity by all shortest-path code. Chosen so
    that [inf + inf] does not overflow. *)
val inf : int
