(** Binary min-heap priority queue over integer priorities.

    Used by the centralized shortest-path and matching reference
    implementations. Elements are arbitrary; priorities are [int]. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [is_empty q] is true iff [q] holds no element. *)
val is_empty : 'a t -> bool

(** [length q] is the number of stored elements. *)
val length : 'a t -> int

(** [push q prio x] inserts [x] with priority [prio]. *)
val push : 'a t -> int -> 'a -> unit

(** [pop_min q] removes and returns the minimum-priority binding
    [(prio, x)]. @raise Not_found if [q] is empty. *)
val pop_min : 'a t -> int * 'a
