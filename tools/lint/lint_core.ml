(* Model-compliance lint over the repository's OCaml sources.

   The CONGEST reproduction's guarantees (DESIGN.md "Model compliance &
   static analysis") rest on properties no type checker enforces:
   executions must be deterministic given the seeds, message accounting
   must be honest, and library code must fail with typed, contextual
   errors. This module parses each [.ml] file into a Parsetree with
   [compiler-libs] and walks it with an [Ast_iterator], reporting
   violations as [file:line:col] findings with a stable rule id.

   The analysis is purely syntactic: it sees names, not types. Rules are
   therefore scoped to the directories where their approximation is
   sound (see [applies]) and deliberate exceptions are recorded in a
   committed baseline file (one entry per rule x file with an expected
   count and a justification), so the build fails only on new findings
   or on stale entries. *)

type finding = { rule : string; file : string; line : int; col : int; message : string }

let rules =
  [
    ( "unseeded-random",
      "ambient randomness: Random.* outside Random.State, or Random.State.make_self_init \
       (breaks seed-reproducibility)" );
    ( "ambient-env",
      "wall-clock or environment read (Unix.*, Sys.time, Sys.getenv, ...): output must \
       depend only on inputs and seeds" );
    ("unsafe-escape", "unsafe escape hatch (Obj.magic, Marshal) voids every static guarantee");
    ( "lib-abort",
      "failwith / assert false in library code: raise a typed exception or \
       Invalid_argument with context" );
    ("catch-all", "catch-all 'try ... with _ ->' swallows every exception, including bugs");
    ( "poly-compare",
      "polymorphic compare in lib/congest: use Int.compare / a typed comparison so \
       message ordering cannot depend on representation" );
    ( "hashtbl-order",
      "Hashtbl.iter/fold in lib/congest: iteration order is nondeterministic; sort \
       explicitly before anything order-sensitive (outboxes, metrics)" );
    (* the two interprocedural rules (implemented in Interproc over the
       Callgraph stage) are registered here so the baseline parser and
       --rules listing know them *)
    ( "node-locality",
      "interprocedural: a per-node callback (init/step/active/on_restart, or a RECOVERABLE \
       structure handed to a *.Make functor) can reach module-level mutable state — shared \
       memory outside charged messages invalidates every round bound" );
    ( "send-discipline",
      "interprocedural: a per-node callback path charges Metrics counters directly; all \
       traffic/storage accounting must flow through the engine's single charging path" );
    ( "bandwidth-sound",
      "a message module's `words` may undercharge its statically bounded content: every \
       accepted word must be accounted for the CONGEST O(log n)-bit budget to mean anything" );
    ( "bandwidth-charge",
      "a Metrics.add_count Words / Checkpoint_words caller is not an audited [@@charge_site] \
       or charges a measure not derived from M.words / Array.length" );
  ]

let rule_ids = List.map fst rules

let interproc_rule_ids =
  [
    "node-locality";
    "send-discipline";
    "bandwidth-sound";
    "bandwidth-charge";
  ]

(* ------------------------------------------------------------------ *)
(* Path scoping *)

let segments file = String.split_on_char '/' file |> List.filter (fun s -> s <> "" && s <> ".")

let under dir file =
  (* does [file] live under a directory named [dir] ("lib" or "lib/congest")? *)
  let dirsegs = String.split_on_char '/' dir in
  let rec has_prefix = function
    | [] -> false
    | _ :: rest as l ->
        let rec matches = function
          | [], _ -> true
          | d :: ds, s :: ss when d = s -> matches (ds, ss)
          | _ -> false
        in
        matches (dirsegs, l) || has_prefix rest
  in
  has_prefix (segments file)

(* [lib-abort] only constrains library code; CLIs and tests may abort.
   [poly-compare] and [hashtbl-order] approximate type/flow information
   syntactically, which is only precise enough for the small, hot
   lib/congest model layer. *)
let applies rule file =
  match rule with
  | "lib-abort" -> under "lib" file
  | "poly-compare" | "hashtbl-order" -> under "lib/congest" file
  (* the charging-path audit binds library code only: CLIs do
     coordinator-side reporting, not per-message accounting *)
  | "bandwidth-charge" -> under "lib" file
  | _ -> true (* node-locality and send-discipline bind wherever nodes run *)

(* ------------------------------------------------------------------ *)
(* The AST walk *)

let lint_structure ~file structure =
  let findings = ref [] in
  let report rule (loc : Location.t) message =
    if applies rule file then begin
      let p = loc.loc_start in
      findings :=
        { rule; file; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; message } :: !findings
    end
  in
  let check_ident loc lid =
    let path =
      match Longident.flatten lid with "Stdlib" :: rest -> rest | path -> path
    in
    match path with
    | [ "failwith" ] | [ "Printf"; "failwithf" ] ->
        report "lib-abort" loc "failwith aborts with an untyped Failure"
    | [ "compare" ] | [ "Pervasives"; "compare" ] ->
        report "poly-compare" loc "polymorphic compare"
    | [ "Random"; "State"; "make_self_init" ] ->
        report "unseeded-random" loc "Random.State.make_self_init seeds from the environment"
    | [ "Random"; "State"; _ ] -> ()
    | "Random" :: f :: _ ->
        report "unseeded-random" loc
          (Printf.sprintf "Random.%s uses the shared, ambiently-seeded generator" f)
    | [ "Sys"; f ]
      when List.mem f
             [
               "time"; "getenv"; "getenv_opt"; "unsafe_getenv"; "command"; "getcwd";
               "readdir"; "environment";
             ] ->
        report "ambient-env" loc (Printf.sprintf "Sys.%s reads ambient state" f)
    | "Unix" :: _ -> report "ambient-env" loc "Unix.* reads clocks/processes/environment"
    | [ "Obj"; "magic" ] -> report "unsafe-escape" loc "Obj.magic defeats the type system"
    | "Marshal" :: _ ->
        report "unsafe-escape" loc "Marshal is unsafe on read-back and format-unstable"
    | [ "Hashtbl"; ("iter" | "fold" as f) ] ->
        report "hashtbl-order" loc
          (Printf.sprintf "Hashtbl.%s visits bindings in nondeterministic order" f)
    | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> check_ident loc txt
          | Parsetree.Pexp_assert
              { pexp_desc = Parsetree.Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
                _;
              } ->
              report "lib-abort" e.Parsetree.pexp_loc "assert false aborts with no context"
          | Parsetree.Pexp_try (_, cases) ->
              List.iter
                (fun (c : Parsetree.case) ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | Parsetree.Ppat_any, None ->
                      report "catch-all" c.pc_lhs.ppat_loc "handler matches any exception"
                  | _ -> ())
                cases
          | _ -> ());
          Ast_iterator.default_iterator.expr iter e);
    }
  in
  iter.structure iter structure;
  List.rev !findings

let parse_source ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  try Ok (Parse.implementation lexbuf)
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        Error (Format.asprintf "%a" Location.print_report report)
    | _ -> Error (Printf.sprintf "%s: %s" file (Printexc.to_string exn)))

let lint_source ~file source =
  Result.map (lint_structure ~file) (parse_source ~file source)

(* ------------------------------------------------------------------ *)
(* Baseline *)

type baseline_entry = {
  b_rule : string;
  b_file : string;
  count : int;
  justification : string;
  b_line : int;
}

(* Line format: [<rule> <file> <count> # <justification>]. Blank lines and
   lines starting with '#' are comments. *)
let parse_baseline text =
  let entries = ref [] and errors = ref [] in
  let err lno msg = errors := Printf.sprintf "lint.baseline:%d: %s" lno msg :: !errors in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let lno = i + 1 in
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           let entry, justification =
             match String.index_opt line '#' with
             | Some h ->
                 ( String.trim (String.sub line 0 h),
                   String.trim (String.sub line (h + 1) (String.length line - h - 1)) )
             | None -> (line, "")
           in
           match String.split_on_char ' ' entry |> List.filter (( <> ) "") with
           | [ b_rule; b_file; count ] -> (
               if not (List.mem b_rule rule_ids) then
                 err lno (Printf.sprintf "unknown rule id %S" b_rule)
               else if justification = "" then
                 err lno "baseline entry needs a '# justification' comment"
               else
                 match int_of_string_opt count with
                 | Some count when count > 0 ->
                     if
                       List.exists
                         (fun e -> e.b_rule = b_rule && e.b_file = b_file)
                         !entries
                     then err lno (Printf.sprintf "duplicate entry for %s %s" b_rule b_file)
                     else
                       entries :=
                         { b_rule; b_file; count; justification; b_line = lno } :: !entries
                 | _ -> err lno (Printf.sprintf "invalid count %S" count))
           | _ -> err lno "expected '<rule> <file> <count> # <justification>'");
  match !errors with [] -> Ok (List.rev !entries) | es -> Error (List.rev es)

(* [--update-baseline] stamps new groups "TODO justify"; an entry still
   carrying that marker is a debt, not a decision, and fails the build
   until a human writes the why. *)
let unjustified entries =
  let is_todo j =
    String.length j >= 4 && String.lowercase_ascii (String.sub j 0 4) = "todo"
  in
  List.filter (fun e -> is_todo e.justification) entries

type baseline_outcome = {
  fresh : finding list;  (* findings the baseline does not cover *)
  stale : (baseline_entry * int) list;  (* entries expecting more findings than found *)
}

let apply_baseline entries findings =
  let count_for rule file =
    match List.find_opt (fun e -> e.b_rule = rule && e.b_file = file) entries with
    | Some e -> e.count
    | None -> 0
  in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let k = (f.rule, f.file) in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    findings;
  let fresh =
    List.filter_map
      (fun f ->
        let allowed = count_for f.rule f.file in
        let actual = Hashtbl.find tally (f.rule, f.file) in
        if actual <= allowed then None
        else if allowed = 0 then Some f
        else
          Some
            {
              f with
              message =
                Printf.sprintf "%s (%d baselined, %d found)" f.message allowed actual;
            })
      findings
  in
  let stale =
    List.filter_map
      (fun e ->
        let actual = Option.value ~default:0 (Hashtbl.find_opt tally (e.b_rule, e.b_file)) in
        if actual < e.count then Some (e, actual) else None)
      entries
  in
  { fresh; stale }

(* Rebuild the baseline from the current findings: one entry per
   (rule, file) with the exact count. Entries that survive keep their
   justification; new ones are marked for review; entries whose
   findings disappeared are dropped (they would be stale). Used by
   [lint --update-baseline]. *)
let baseline_header =
  "# Model-compliance lint baseline (DESIGN.md \"Model compliance & static analysis\").\n\
   # One entry per deliberate exception: <rule> <file> <count> # justification.\n\
   # `dune build @lint` fails on any finding not covered here AND on any entry\n\
   # whose count exceeds the real findings (stale) — shrink this file as code is fixed.\n"

let render_baseline ~old findings =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let k = (f.rule, f.file) in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    findings;
  let groups =
    Hashtbl.fold (fun (rule, file) count acc -> (file, rule, count) :: acc) tally []
    |> List.sort compare
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf baseline_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (file, rule, count) ->
      let justification =
        match List.find_opt (fun e -> e.b_rule = rule && e.b_file = file) old with
        | Some e -> e.justification
        | None -> "TODO justify"
      in
      Buffer.add_string buf (Printf.sprintf "%s %s %d # %s\n" rule file count justification))
    groups;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Output *)

let pp_finding_text fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_finding_json fmt f =
  Format.fprintf fmt
    {|{"rule": "%s", "file": "%s", "line": %d, "col": %d, "message": "%s"}|}
    (json_escape f.rule) (json_escape f.file) f.line f.col (json_escape f.message)
