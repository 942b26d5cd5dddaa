(** Tree decompositions with the paper's string identifiers.

    Following Section 2.2, every vertex of the decomposition tree [T] is
    identified by a string over the alphabet [0, n-1]; the root is the
    empty string and [x . i] is the i-th child of [x]. We represent a
    string as an [int list] ("key"). *)

type key = int list

type t

(** [create g bags] builds a decomposition of [g] from an association of
    keys to bags. The key set must be prefix-closed with contiguous child
    indices (if [x . i] is present and [i > 0] then [x . (i-1)] is).
    No structural validity is enforced beyond the key set — use
    {!validate}. *)
val create : Repro_graph.Digraph.t -> (key * int array) list -> t

val bag : t -> key -> int array
val keys : t -> key list

(** [children t x] are the child indices [i] with [x . i] present
    ([cht] in the paper). *)
val children : t -> key -> int list

(** [width t] is [max bag size - 1]. *)
val width : t -> int

(** [depth t] is the length of the longest key. *)
val depth : t -> int

val bag_count : t -> int

(** [canonical t v] is the shortest key whose bag contains [v]
    ([c*(v)] in the paper). Well-defined whenever condition (c) holds.
    @raise Not_found if no bag contains [v]. *)
val canonical : t -> int -> key

(** [b_up t v] is the union of the bags of all prefixes of [canonical t
    v] — the anchor set [B^(arrow-up)(v)] of the distance-labeling scheme
    (Section 4.1). Sorted, duplicate-free. *)
val b_up : t -> int -> int array

(** [validate t] checks the three tree-decomposition conditions of
    Section 2.2: (a) every vertex covered, (b) every skeleton edge inside
    some bag, (c) the bags containing any vertex form a connected subtree.
    Returns [Ok ()] or [Error message]. *)
val validate : t -> (unit, string) result

(** [of_parent_tree g ~bags ~parents] converts a decomposition given as
    arrays (bag [i] has parent [parents.(i)], root has parent [-1]) into
    key form, assigning child indices in order of appearance. *)
val of_parent_tree : Repro_graph.Digraph.t -> bags:int array array -> parents:int array -> t

val pp : Format.formatter -> t -> unit
