(** Bandwidth-soundness pass (DESIGN.md §3i): static message-size
    verdicts for every message module, plus certification of the
    [Metrics.add_count] charging sites of [Words] / [Checkpoint_words].

    A message module is any submodule or anonymous functor-argument
    structure declaring both [type t] and [let words]. Its content gets
    a static upper bound [c + p*payload] derived from the field types of
    [t] ([int] = 1 word, [bool]/[unit]/[char] ride in the header, tuples
    and records sum, variants take the max over constructors, a foreign
    [.t] is one opaque payload); the [words] body is abstractly
    evaluated to the matching interval of linear forms. Undercharging
    ([bandwidth-sound]) and un-audited or inconsistent charging sites
    ([bandwidth-charge], requiring [[@@charge_site]] and a measure that
    reduces to an [M.words] accumulation or [Array.length]) fail the
    build. Soundness caveats in DESIGN.md §3i. *)

type verdict = {
  v_name : string;  (** e.g. ["Apsp.E"] or ["Transport.Make.Packet"] *)
  v_file : string;
  v_line : int;
  v_algo : string;  (** owning file's basename, e.g. ["apsp"] *)
  v_kind : string;
      (** ["algorithm"] (no payload component: O(1) words of O(log n)
          bits), ["wrapper"] (one payload + O(1) header words), or
          ["unknown"] when a bound is underivable *)
  v_content : string;  (** rendered content bound, e.g. ["5 + payload"] *)
  v_charged : string;  (** rendered maximal charge of the [words] body *)
  v_ok : bool;
  v_note : string;
}

type report = {
  b_verdicts : verdict list;
  b_findings : Lint_core.finding list;
  b_charge_sites : int;  (** charging sites certified audited + consistent *)
  b_all_pass : bool;  (** every verdict ok and no findings: the CI gate *)
}

(** [analyze cg parsed] — verdicts come from the parsed structures,
    charging-site certification from the call graph's bindings. *)
val analyze : Callgraph.t -> (string * Parsetree.structure) list -> report

val findings_of_report : report -> Lint_core.finding list

(** The machine-readable verdict table
    ([_build/default/analysis/bandwidth.json]). *)
val to_json : report -> string
