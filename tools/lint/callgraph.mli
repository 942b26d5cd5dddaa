(** Whole-repository symbol/call-graph builder (stage 1 of 2 of the
    interprocedural model-compliance analysis, DESIGN.md "Model
    compliance & static analysis"; {!Interproc} is stage 2).

    Reduces every parsed [.ml] to its module-level value bindings and
    resolves module-qualified references across files: top-level and
    [let module] aliases are expanded, sibling modules of the same
    directory resolve directly, and library wrapper modules (from each
    directory's [dune] stanza, falling back to the [lib/<d>] ->
    [Repro_<d>] convention) resolve across libraries. Also collects the
    repository's per-node callback sites: [~init]/[~step]/[~active]/
    [~on_restart] arguments at [run]-shaped applications, and the
    per-node value bindings of structures handed to [*.Make] functors.

    Purely syntactic: no types, no functor instantiation tracking, and
    local shadowing of module-level names is ignored (soundness caveats
    in DESIGN.md). *)

(** A module-level binding: [s_path] is its dotted path within
    [s_file], e.g. ["Make.run"]. *)
type sym = { s_file : string; s_path : string }

type binding = {
  file : string;
  line : int;
  is_mutable_value : bool;
      (** defined as [ref]/[Hashtbl.create]/[Array.make]/[Buffer.create]/
          an array literal/...: module-level mutable state *)
  is_charge_site : bool;
      (** carries [@@charge_site]: an audited entry point of the message/
          storage accounting path, allowed to charge [Metrics.add_count]
          [Words] / [Checkpoint_words] (certified by the bandwidth pass) *)
  calls : sym list;  (** resolved in-repo references, sorted, deduplicated *)
  externals : string list;
      (** unresolved qualified references (dotted), e.g. ["List.iter"] *)
  expr : Parsetree.expression;
      (** the binding's right-hand side, consumed by the bandwidth pass *)
}

(** A per-node callback site with its reference set, closed over the
    local [let]-bindings of the enclosing module-level binding (so a
    closure passed by name contributes what it captures). *)
type callback = {
  cb_file : string;
  cb_owner : string;
  cb_label : string;
  cb_line : int;
  cb_col : int;
  cb_calls : sym list;
  cb_externals : string list;
}

type t = {
  files : string list;
  bindings : (sym, binding) Hashtbl.t;
  order : sym list;  (** deterministic iteration order (file, then source order) *)
  callbacks : callback list;  (** sorted by file, then position *)
}

val find : t -> sym -> binding option

(** [display s] is the human-readable name: the file's module plus the
    in-file path, e.g. ["Engine.trace_sink"]. *)
val display : sym -> string

val module_of_file : string -> string

(** [build parsed] over [(filename, structure)] pairs. Filenames drive
    resolution (directory siblings, library wrappers) and findings; they
    need not exist on disk. *)
val build : (string * Parsetree.structure) list -> t
