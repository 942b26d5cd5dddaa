(** Distance labels and their decoder (Section 4.1 of the paper).

    A node's label is its distance set to its anchor vertices — the union
    of the bags on the decomposition-tree path from the root down to the
    deepest bag containing the node ([B^up(u)], Section 4.1; our labels
    may also carry a few extra anchors from deeper bags the vertex itself
    belongs to, which only helps). Each anchor entry stores the exact
    distance in both directions, so the common decoder

      dec(la(u), la(v)) = min over shared anchors s of d(u,s) + d(s,v)

    recovers [d_G(u, v)] exactly (Lemma 2). *)

type t

(** [create owner] is an empty label for vertex [owner]. *)
val create : int -> t

val owner : t -> int

(** [set label ~anchor ~d_to ~d_from] installs the entry for [anchor]
    ([d_to] = distance owner->anchor, [d_from] = anchor->owner),
    min-merging componentwise with any existing entry: every produced
    value is a real walk length, so the minimum is always sound. *)
val set : t -> anchor:int -> d_to:int -> d_from:int -> unit

(** [dist_to label anchor] is [Some (d owner->anchor)] if present. *)
val dist_to : t -> int -> int option

val dist_from : t -> int -> int option

(** [find label anchor] is the stored [(d_to, d_from)] pair, without
    allocating (the codec's writer reads every entry twice).
    @raise Not_found if [anchor] is absent. *)
val find : t -> int -> int * int

(** [anchors label] lists the anchor vertices, sorted. *)
val anchors : t -> int list

(** [decode la_u la_v] is the exact distance from [owner la_u] to
    [owner la_v] per the decoder above; [Digraph.inf] when no common
    anchor connects them. *)
val decode : t -> t -> int

(** [size_words label] is the label size in machine words (3 words per
    entry: anchor id + two distances), the quantity Theorem 2 bounds by
    O(tau^2 log^2 n) bits. *)
val size_words : t -> int

(** [equal a b] — same owner and exactly the same anchor entries
    (serialization round-trip oracle). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [to_string t] prints the label on one line: the owner, then one
    [anchor d_to d_from] triple per entry in anchor order. A readable
    rendering (bench E-S1's size baseline), not a persistence format:
    labels persist only in [Repro_serve.Store]. *)
val to_string : t -> string
