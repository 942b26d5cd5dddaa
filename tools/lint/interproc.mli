(** Interprocedural model-compliance rules (stage 2 of 2), over the
    {!Callgraph} symbol graph: [node-locality] (no per-node callback may
    reach module-level mutable state) and [send-discipline] (no per-node
    callback path may charge [Metrics] counters directly). Findings
    carry the full reachability chain and anchor at the callback site,
    so the baseline groups them per (rule, file). *)

(** All interprocedural findings over a built call graph, in stable
    (file, position, rule, message) order. Rule scoping goes through
    {!Lint_core.applies}. *)
val findings : Callgraph.t -> Lint_core.finding list

(** [analyze parsed] builds the call graph from [(file, structure)]
    pairs and runs every rule. *)
val analyze : (string * Parsetree.structure) list -> Callgraph.t * Lint_core.finding list
