(** Bit-packed label codec (DESIGN §3h).

    Encodes a {!Repro_core.Labeling.t} toward its O(tau^2 log^2 n)-bit
    bound (Theorem 2): the sorted anchor set is delta-coded (first
    anchor as a varint, then gaps minus one at the minimal per-label
    width), and each distance pair is stored as two minimal-width
    fields — [d_to] with an all-ones sentinel for infinity, and a
    zigzagged [d_from - d_to] residual (anchors close in one direction
    tend to be close in the other, so residuals are short).

    The anchor block and the distance body are separable on purpose:
    sibling vertices share their B^up anchor sets, so the store pools
    anchor blocks and each record keeps only a pool id plus its body.

    Each layout is written once, as one function that runs in both
    directions over a writer or a reader, so the two cannot disagree on
    field order or widths. Every width header passes one guard on both
    sides: a width above 30 bits raises [Invalid_argument] (the writer
    cannot encode the value; the reader found a corrupt field). *)

(** {1 Anchor blocks} *)

(** [write_anchors w anchors] appends a strictly increasing anchor set.
    @raise Invalid_argument if not strictly increasing. *)
val write_anchors : Bitio.writer -> int array -> unit

(** @raise Bitio.Truncated if the stream ends early, or is too short
    for the block's anchor count (checked before the count sizes an
    array).
    @raise Invalid_argument on a corrupt width or count field. *)
val read_anchors : Bitio.reader -> int array

(** [encode_anchors anchors] is a standalone byte string — also the
    store's pool-dedup key. *)
val encode_anchors : int array -> string

(** {1 Distance bodies} *)

(** [write_body w ~anchors la] appends owner and the per-anchor
    distance fields, in [anchors] order. [anchors] must be exactly
    [Labeling.anchors la]. Two body-local compressions: when
    [owner_hint] equals the label's owner (the store passes the record
    index — labels own their own vertex) the owner collapses to one
    bit, and when every [d_from] equals its [d_to] (symmetric graphs:
    E2b's bidirected partial k-trees and wheels) a symmetry bit elides
    the entire residual block. The reader must pass the same
    [owner_hint].
    @raise Invalid_argument if a finite field would exceed 30 bits. *)
val write_body :
  ?owner_hint:int -> Bitio.writer -> anchors:int array -> Repro_core.Labeling.t -> unit

(** [read_body r ~anchors] decodes straight into a fresh label.
    @raise Bitio.Truncated if the stream ends early.
    @raise Invalid_argument on a corrupt width field, or an owner-hint
    bit with no [owner_hint]. *)
val read_body :
  ?owner_hint:int -> Bitio.reader -> anchors:int array -> Repro_core.Labeling.t

(** {1 Whole labels} *)

(** [encode la] is anchors block followed by body, byte-padded;
    [decode (encode la)] satisfies [Labeling.equal] with [la] whenever
    every distance is either finite or exactly [Digraph.inf]. *)
val encode : Repro_core.Labeling.t -> string

(** @raise Bitio.Truncated on a cut-short stream.
    @raise Invalid_argument on a corrupt width field. *)
val decode : string -> Repro_core.Labeling.t

(** [encoded_bits la] is the exact bit length of [encode la] before
    byte padding — what BENCH_serve compares to tau^2 log^2 n. *)
val encoded_bits : Repro_core.Labeling.t -> int
