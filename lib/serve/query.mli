(** Query engine: answers DIST / CDL queries from labels alone
    (DESIGN §3h).

    A {!source} is a set of label lookups: {!of_store} over a persisted
    {!Store.t}, or a record built over labels held in memory. Soundness
    rests on the labels, not the serving layer: a label array produced
    by the certified pipeline answers every query exactly (Theorem 2 /
    Theorem 3), and the store's checksums guarantee the served labels
    are the ones that were certified. *)

type cdl_source = {
  q_size : int;
  start : int;  (** the constraint DFA's start state *)
  label : int -> Repro_core.Labeling.t;  (** product index [(v, q) = v * q_size + q] *)
}

type source = {
  n : int;
  dist : int -> Repro_core.Labeling.t;
  cdl : cdl_source option;
}

val of_store : Store.t -> source

(** {1 Queries} *)

type t =
  | Dist of { u : int; v : int }
  | Cdl of { u : int; v : int; q : int }  (** walk ends in state [q] *)

(** [parse source line] parses ["DIST u v"] or ["CDL u v q"] (fields
    separated by any run of spaces, tabs, CRs or LFs; ops
    case-sensitive). Errors name the bad field, e.g.
    [DIST: v: expected an int, got "x"]. *)
val parse : source -> string -> (t, string) result

(** [answer ?cache source q] decodes the exact distance
    ([Digraph.inf] when unreachable), consulting and filling the
    hot-pair cache when given.
    @raise Invalid_argument on a CDL query against a source without
    CDL labels ({!parse} already rejects those). *)
val answer : ?cache:Cache.t -> source -> t -> int

(** [print_answer d] is ["inf"] for unreachable, else the decimal
    distance — one output line per query. *)
val print_answer : int -> string
