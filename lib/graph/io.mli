(** Plain-text graph serialization.

    Format (one graph per file):
    {v
    graph|digraph <n> <m>
    <src> <dst> <weight> [label]
    ... (m edge lines; '#' starts a comment line)
    v}
    Labels default to 0. Round-trips exactly through
    {!to_string}/{!of_string}. *)

val to_string : Digraph.t -> string

(** @raise Invalid_argument on malformed input, naming the offending
    line. *)
val of_string : string -> Digraph.t

val save : string -> Digraph.t -> unit

(** @raise Sys_error / Invalid_argument *)
val load : string -> Digraph.t

(** [to_dot g] renders Graphviz DOT (edge labels show weights; nonzero
    edge labels are appended after a colon). *)
val to_dot : Digraph.t -> string
