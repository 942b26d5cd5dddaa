(** Deterministic hash-table iteration (the shared fix for the
    [hashtbl-order] lint rule).

    [Hashtbl] iteration order is nondeterministic across insertion
    histories; these helpers either sort bindings by a caller-supplied
    key comparison or restrict the consumer to an order-insensitive
    boolean predicate. This module is the single audited place in
    [lib/congest] that touches raw [Hashtbl.iter]/[fold]. *)

(** [exists p tbl] — does any binding satisfy [p]? Order-insensitive
    (a boolean OR), with early exit. *)
val exists : ('k -> 'v -> bool) -> ('k, 'v) Hashtbl.t -> bool

(** All bindings, sorted by key under [compare]. *)
val bindings : ('k, 'v) Hashtbl.t -> compare:('k -> 'k -> int) -> ('k * 'v) list

val iter_sorted : ('k, 'v) Hashtbl.t -> compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> unit
