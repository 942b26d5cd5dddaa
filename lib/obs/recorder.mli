(** In-memory trace recorder: a growable ring buffer of events.

    The buffer doubles until it reaches the hard [capacity]
    (default [2^22] events), after which it wraps and overwrites the
    oldest events — long runs keep the most recent window instead of
    exhausting memory. *)

type t

val create : ?capacity:int -> unit -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val record : t -> Event.t -> unit
val length : t -> int

val overwritten : t -> int
(** Number of oldest events lost to ring wrap-around (0 unless the
    run exceeded [capacity] events). *)

val clear : t -> unit

val to_list : t -> Event.t list
(** Events in recording order (oldest first). *)

val sink : t -> Sink.t
(** An enabled sink that records into this buffer. *)
