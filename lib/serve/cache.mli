(** Bounded hot-pair LRU cache for the query engine (DESIGN §3h).

    Int keys, int values, fixed capacity, intrusive doubly-linked list
    over preallocated arrays, indexed by an open-addressing int table
    sized at {!create} — the serve hot loop does one {!find} per query,
    and one {!add} per miss, and neither allocates. Counters accumulate
    locally and are pushed to {!Repro_congest.Metrics} by {!flush}. *)

type t

(** [create capacity] — [capacity = 0] disables the cache ({!find}
    always misses, {!add} is a no-op; [labels_cli serve --cache 0]). *)
val create : int -> t

(** Returned by {!find} on a miss. Values must not equal [absent]
    ([min_int]) — distances and [Digraph.inf] never do. *)
val absent : int

(** [find t key] is the cached value promoted to most-recent, or
    {!absent}; counts one hit or miss. *)
val find : t -> int -> int

(** [add t key value] inserts or refreshes most-recent; evicts the
    least-recent entry when full. *)
val add : t -> int -> int -> unit

val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** [flush t m] moves the three counters into [m] (adds, then zeroes
    the local ones). *)
val flush : t -> Repro_congest.Metrics.t -> unit
