(** Model-compliance lint over the repository's OCaml sources (see
    DESIGN.md "Model compliance & static analysis").

    Parses [.ml] files with [compiler-libs] and walks the Parsetree,
    reporting determinism/model violations with stable rule ids.
    Deliberate exceptions live in a committed baseline file; the build
    fails on new findings and on stale baseline entries. *)

type finding = { rule : string; file : string; line : int; col : int; message : string }

(** [(id, description)] for every rule the analyzer knows, including
    the interprocedural rules implemented in [Interproc]. *)
val rules : (string * string) list

val rule_ids : string list

(** The rule ids emitted by the interprocedural pass ([node-locality],
    [send-discipline]) rather than the single-file walk. *)
val interproc_rule_ids : string list

(** [applies rule file] — is [rule] in force for [file]? Some rules are
    scoped: [lib-abort] to [lib/], [poly-compare] and [hashtbl-order] to
    [lib/congest/]. *)
val applies : string -> string -> bool

(** [parse_source ~file src] parses [src] into a Parsetree, attributing
    locations to [file]; errors render as a compiler-style report. The
    CLI parses each file once and feeds the structure to both the
    single-file walk and the interprocedural pass. *)
val parse_source : file:string -> string -> (Parsetree.structure, string) result

(** [lint_structure ~file structure] runs the single-file rules over an
    already-parsed structure. *)
val lint_structure : file:string -> Parsetree.structure -> finding list

(** [lint_source ~file src] parses [src] (attributing locations to
    [file], which also drives rule scoping) and returns its findings in
    source order, or a parse-error message. *)
val lint_source : file:string -> string -> (finding list, string) result

type baseline_entry = {
  b_rule : string;
  b_file : string;
  count : int;  (** exact number of findings this entry covers *)
  justification : string;  (** required one-line why *)
  b_line : int;  (** 1-based line in the baseline file, for error reports *)
}

(** Parses a baseline file: one [<rule> <file> <count> # <justification>]
    entry per line, ['#'] comments and blank lines ignored. Rejects
    unknown rules, duplicate entries, non-positive counts, and entries
    with no justification. *)
val parse_baseline : string -> (baseline_entry list, string list) result

(** Entries whose justification is still the ["TODO justify"] marker
    left by [--update-baseline] (case-insensitive ["todo"] prefix): the
    lint CLI fails the build on them, printing the offending lines. *)
val unjustified : baseline_entry list -> baseline_entry list

type baseline_outcome = {
  fresh : finding list;
      (** findings not covered: either no entry, or more findings than the
          entry's count (then every finding of that group is reported). *)
  stale : (baseline_entry * int) list;
      (** entries whose count exceeds the actual findings, with the actual
          count — the baseline must shrink when violations are fixed. *)
}

val apply_baseline : baseline_entry list -> finding list -> baseline_outcome

(** [render_baseline ~old findings] rebuilds the baseline file text from
    the current findings: one [<rule> <file> <count>] entry per group,
    sorted by file then rule. Groups that already had an entry in [old]
    keep its justification; new groups are marked ["TODO justify"];
    entries with no remaining findings are dropped. Used by
    [lint --update-baseline]. *)
val render_baseline : old:baseline_entry list -> finding list -> string

(** [json_escape s] escapes [s] for use inside a JSON string literal;
    shared by every JSON report the lint writes. *)
val json_escape : string -> string

val pp_finding_text : Format.formatter -> finding -> unit
val pp_finding_json : Format.formatter -> finding -> unit
