(** Persistent bit-packed label store (DESIGN §3h).

    Versioned binary container for one graph's Theorem-2 distance
    labels, optionally plus the CDL product labels of a constraint.
    Layout is seek-friendly: a fixed header, then per section a
    deduplicated anchor-set pool (sibling vertices share their B^up
    anchor sets, so most labels only pay for a pool id) and the
    records grouped into shards, each shard one unpadded bitstream
    with a single [offset, checksum] index entry — a per-shard index
    keeps directory overhead constant per shard instead of 8 bytes per
    record, which would dwarf the ~30-byte bit-packed records.
    {!open_} parses directory structure only, and verifies each
    section's checksum, which covers the file header, the section's
    count fields and its anchor pool, before any of those fields is
    used. Record bytes stay raw until the first
    {!dist_label}/{!cdl_label} touching their shard, which verifies the
    shard checksum (the transport-integrity idiom: [Hashtbl.hash] as a
    structural checksum), decodes the shard and caches it — so seeks
    are O(1) after a one-time O(shard_size) decode. A damaged byte
    surfaces as {!Error}, never as a wrong distance, and no count is
    trusted to size an allocation beyond the bytes that must back it. *)

type error =
  | Format_error of string  (** bad magic, truncation, out-of-range field *)
  | Checksum_mismatch of { what : string; index : int }
      (** [what] is ["shard"] or ["section"]; [index] the shard number
          (records [index * shard_size ..]) or the section (0 for
          distances, 1 for CDL) *)

exception Error of error

val pp_error : Format.formatter -> error -> unit

(** {1 Writing} *)

(** [save path dist] writes the store.
    [cdl = (q_size, start, product_labels)] appends the
    constrained-label section: the constraint's state count and start
    state, and the product labels with vertex [(v, q)] at index
    [v * q_size + q] ({!Repro_core.Cdl.labels} order). [shard_size] is
    records per shard (default 64). *)
val save :
  ?shard_size:int -> ?cdl:int * int * Repro_core.Labeling.t array -> string ->
  Repro_core.Labeling.t array -> unit

(** {1 Reading} *)

type t

(** [open_ path] reads the header and shard directories and verifies
    the section checksums; no pool or record is decoded.
    @raise Error on bad magic, a section checksum mismatch, or a
    truncated or inconsistent directory. *)
val open_ : string -> t

(** Number of distance labels (= graph vertices). *)
val n : t -> int

val has_cdl : t -> bool

(** Constraint state count; 0 when the store has no CDL section. *)
val q_size : t -> int

(** The constraint DFA's start state (0 without a CDL section). *)
val start_state : t -> int

(** Number of CDL records ([n * q_size], 0 without a CDL section). *)
val cdl_count : t -> int

(** [dist_label t v] is vertex [v]'s label; the first access to a
    shard verifies its checksum and decodes it.
    @raise Error on corruption or out-of-range [v]. *)
val dist_label : t -> int -> Repro_core.Labeling.t

(** [cdl_label t i] decodes product-vertex record [i = v * q_size + q].
    @raise Error on corruption, out-of-range [i], or a store without a
    CDL section. *)
val cdl_label : t -> int -> Repro_core.Labeling.t

(** Total file size in bytes — the numerator of the BENCH_serve
    size-vs-bound trajectory. *)
val byte_size : t -> int

(** [pool_count t] is the number of distinct anchor sets in the
    distance section's pool (vs [n] labels — the dedup ratio). *)
val pool_count : t -> int
