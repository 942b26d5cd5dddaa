(** Bottom-up effect summaries over the symbol/call graph (stage 2 of
    the interprocedural model-compliance analysis).

    Every module-level binding gets a transitive summary: which
    module-level mutable values it can read or mutate, whether it can
    perform I/O, and whether it can raise an untyped abort ([failwith],
    [assert false]). Summaries are closed over the call graph with a
    fixpoint, so (mutual) recursion converges. *)

type summary = {
  reads_global : Callgraph.Sym_set.t;
  mutates_global : Callgraph.Sym_set.t;
  performs_io : bool;
  raises_untyped : bool;
}

type t

val summarize : Callgraph.t -> t
val find : t -> Callgraph.sym -> summary option

(** Stable symbol identifier used in the JSON report:
    ["<file>#<dotted path>"]. *)
val sym_id : Callgraph.sym -> string

(** The machine-readable effect report
    ([_build/default/analysis/effects.json]): one entry per binding with
    its summary, direct calls, and external references. *)
val to_json : Callgraph.t -> t -> string
