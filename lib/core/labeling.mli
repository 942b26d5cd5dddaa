(** Distance labels and their decoder (Section 4.1 of the paper).

    A node's label is its distance set to its anchor vertices — the union
    of the bags on the decomposition-tree path from the root down to the
    deepest bag containing the node ([B^up(u)], Section 4.1; our labels
    may also carry a few extra anchors from deeper bags the vertex itself
    belongs to, which only helps). Each anchor entry stores the exact
    distance in both directions, so the common decoder

      dec(la(u), la(v)) = min over shared anchors s of d(u,s) + d(s,v)

    recovers [d_G(u, v)] exactly (Lemma 2).

    {b Representation} (DESIGN §3h). A label is its owner, a length [k]
    and three parallel [int] arrays — anchor, [d_to], [d_from] — whose
    first [k] slots hold the entries sorted by strictly increasing
    anchor; the arrays double when full. Costs, for a label of [k]
    entries: {!decode} is a merge-join of the two anchor arrays,
    O(k_u + k_v) and allocation-free; {!position}, {!find} and the
    lookups behind them are a binary search, O(log k); {!set} appends
    in O(1) amortized when the anchor exceeds every present one, and
    otherwise costs a binary search plus a shift of the larger anchors,
    O(k); {!set_sorted} merges a batch of [b] entries in one pass,
    O(k + b), where [b] calls of {!set} could shift the larger anchors
    [b] times; {!clear} and the positional reads are O(1). *)

type t

(** [create owner] is an empty label for vertex [owner]. It allocates
    no arrays until the first {!set}. *)
val create : int -> t

val owner : t -> int

(** [set label ~anchor ~d_to ~d_from] installs the entry for [anchor]
    ([d_to] = distance owner->anchor, [d_from] = anchor->owner),
    min-merging componentwise with any existing entry: every produced
    value is a real walk length, so the minimum is always sound.
    Inserting in ascending anchor order takes the append path, which
    allocates only when the arrays double. *)
val set : t -> anchor:int -> d_to:int -> d_from:int -> unit

(** [set_sorted label ~anchors ~d_to ~d_from] installs entry [j] =
    [(anchors.(j), d_to.(j), d_from.(j))] for every [j], with the same
    result as one {!set} per entry (a shared anchor keeps the
    componentwise minimum), by one merge from the back: O(k + b) for a
    label of [k] entries and a batch of [b]. It allocates only when the
    arrays must grow past [k + b].
    @raise Invalid_argument if the three arrays differ in length or
    [anchors] does not strictly increase; the label is then unchanged. *)
val set_sorted : t -> anchors:int array -> d_to:int array -> d_from:int array -> unit

(** [clear label] removes every entry, in O(1): the arrays stay
    allocated, so a label refilled to at most its old length allocates
    nothing. *)
val clear : t -> unit

(** {1 Entries by position}

    Positions [0 .. length label - 1] index the entries in ascending
    anchor order. None of these allocates. *)

(** [length label] is the number of entries. *)
val length : t -> int

(** [anchor_at label i] is the anchor of entry [i]; [d_to_at] and
    [d_from_at] are its distances.
    @raise Invalid_argument unless [0 <= i < length label]. *)
val anchor_at : t -> int -> int

val d_to_at : t -> int -> int
val d_from_at : t -> int -> int

(** [position label anchor] is the position of [anchor]'s entry, or
    [-1] when [anchor] is absent. *)
val position : t -> int -> int

(** {1 Lookups} *)

(** [find label anchor] is the stored [(d_to, d_from)] pair. The pair
    is built on each call (3 words on the minor heap); the positional
    reads above are the allocation-free way to the same values.
    @raise Not_found if [anchor] is absent. *)
val find : t -> int -> int * int

(** [anchors label] lists the anchor vertices, sorted (a fresh list). *)
val anchors : t -> int list

(** [decode la_u la_v] is the exact distance from [owner la_u] to
    [owner la_v] per the decoder above; [Digraph.inf] when no common
    anchor connects them. It allocates nothing. *)
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
