(* Allocation-discipline pass (DESIGN.md §3f): the static form of the
   EObs [Gc.minor_words = 0] guarantee.

   Functions annotated [@@hot] (the engine round loop, the transport
   fast path, the metrics setter [add_count], the guarded trace-emit spine)
   promise not to allocate on the minor heap. The EObs benchmark checks
   this dynamically for one configuration; this pass checks it
   statically for every configuration, with per-site provenance:

   - closure construction ([fun]/[function]/local [let f x = ...]/
     [lazy]) — a heap block per evaluation;
   - tuple / record / variant / array-literal boxing;
   - float boxing (applications of [+.]-family operators box their
     result outside flambda);
   - partial application (builds an intermediate closure) — detected
     only when the callee's syntactic arity and every argument are
     unlabelled, so optional/labelled-argument calls never false-positive;
   - allocating calls: externals on a deny-list ([List.map], [@], [^],
     [Hashtbl.add], ...), unresolved externals (assumed allocating),
     and in-repo callees whose [may_allocate] fixpoint over the call
     graph is true.

   Analysis is at the Parsetree level with callgraph-resolved callees
   (ISSUE 7 asks for Typedtree; running the type-checker across
   libraries is not feasible inside the lint, so types are approximated
   by the external allow/deny lists — a documented deviation, DESIGN.md
   §3f). Two deliberate exclusions keep the pass aligned with the
   runtime contract: branches guarded by the [tracing]/[audit] flags
   (or a [.enabled] sink field) are skipped, because the EObs guarantee
   is conditional on tracing being off; and a binding's leading
   parameters are stripped, because the top-level closure is built at
   module initialization, not per call. *)

module Cg = Callgraph
module P = Parsetree

type kind =
  | Closure
  | Tuple
  | Record
  | Variant
  | Array_lit
  | Float_box
  | Partial_app
  | Alloc_call
  | Unknown_call

let kind_name = function
  | Closure -> "closure"
  | Tuple -> "tuple"
  | Record -> "record"
  | Variant -> "variant"
  | Array_lit -> "array-literal"
  | Float_box -> "float-box"
  | Partial_app -> "partial-application"
  | Alloc_call -> "alloc-call"
  | Unknown_call -> "unknown-call"

type site = { a_kind : kind; a_line : int; a_col : int; a_what : string }

type hot_report = {
  h_sym : Cg.sym;
  h_line : int;
  h_sites : site list;  (* in source order *)
}

(* ------------------------------------------------------------------ *)
(* External classification *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "float_of_string" ]

(* externals known not to allocate: reads/writes of existing blocks,
   integer arithmetic, comparisons, control *)
let non_allocating =
  [
    "not"; "ignore"; "incr"; "decr"; "!"; ":="; "raise"; "raise_notrace";
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "&&"; "||"; "|>"; "@@";
    "abs"; "succ"; "pred"; "min"; "max"; "compare"; "fst"; "snd";
    "Int.compare"; "Int.equal"; "Int.max"; "Int.min"; "Int.abs";
    "Array.get"; "Array.set"; "Array.length"; "Array.unsafe_get"; "Array.unsafe_set";
    "Array.fill"; "Array.blit"; "Array.iter"; "Array.iteri";
    "Bytes.get"; "Bytes.set"; "Bytes.length"; "Bytes.unsafe_get"; "Bytes.unsafe_set";
    "Bytes.fill"; "Bytes.blit";
    "String.length"; "String.get"; "String.unsafe_get"; "String.equal"; "String.compare";
    "Char.code"; "Char.chr"; "Char.unsafe_chr"; "Char.equal"; "Char.compare";
    "int_of_char"; "char_of_int"; "lnot";
    "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.hash"; "Hashtbl.clear"; "Hashtbl.reset";
    "Hashtbl.length"; "Hashtbl.find";
    "Queue.is_empty"; "Queue.pop"; "Queue.take"; "Queue.peek"; "Queue.clear";
    "Queue.length"; "Queue.transfer";
    "Stack.is_empty"; "Stack.pop"; "Stack.top"; "Stack.clear"; "Stack.length";
    "Atomic.get"; "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
    "Option.is_some"; "Option.is_none"; "Option.value";
    "List.length"; "List.hd"; "List.tl"; "List.iter"; "List.is_empty"; "List.exists";
    "List.mem"; "List.for_all";
    "Buffer.length"; "Buffer.clear"; "Buffer.reset";
  ]

(* externals known to allocate *)
let allocating =
  [
    "ref"; "@"; "^"; "lazy"; "string_of_int"; "string_of_float"; "string_of_bool";
    "Printf.sprintf"; "Printf.printf"; "Printf.eprintf"; "Format.asprintf"; "Format.sprintf";
    "List.map"; "List.mapi"; "List.rev_map"; "List.filter"; "List.filter_map";
    "List.concat"; "List.concat_map"; "List.flatten"; "List.append"; "List.rev";
    "List.rev_append"; "List.sort"; "List.stable_sort"; "List.sort_uniq"; "List.init";
    "List.partition"; "List.split"; "List.combine"; "List.cons"; "List.of_seq";
    "List.to_seq"; "List.assoc_opt"; "List.find_opt"; "List.nth_opt";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.append"; "Array.copy";
    "Array.sub"; "Array.concat"; "Array.map"; "Array.mapi"; "Array.of_list"; "Array.to_list";
    "Bytes.create"; "Bytes.make"; "Bytes.copy"; "Bytes.sub"; "Bytes.extend";
    "Bytes.to_string"; "Bytes.of_string"; "Bytes.cat";
    "String.make"; "String.init"; "String.sub"; "String.concat"; "String.cat";
    "String.map"; "String.split_on_char"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy"; "Hashtbl.find_opt";
    "Hashtbl.find_all"; "Hashtbl.fold"; "Hashtbl.to_seq";
    "Queue.create"; "Queue.add"; "Queue.push"; "Queue.copy";
    "Stack.create"; "Stack.push";
    "Atomic.make";
    "Option.some"; "Option.map"; "Option.bind"; "Option.to_list";
    "Buffer.create"; "Buffer.add_string"; "Buffer.add_char"; "Buffer.contents";
    "failwith"; "invalid_arg"; "exit";
  ]

(* ------------------------------------------------------------------ *)
(* Guard exclusion: [if tracing then <slow path>] *)

let guard_flag = function "tracing" | "audit" -> true | _ -> false

(* does the condition mention a tracing/audit flag (possibly inside an
   [&&]/[||] chain) or an [.enabled] sink field? *)
let rec guarded_cond (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with [ x ] -> guard_flag x | _ -> false)
  | P.Pexp_field (_, { txt; _ }) -> (
      match List.rev (Longident.flatten txt) with "enabled" :: _ -> true | _ -> false)
  | P.Pexp_apply (f, args) ->
      guarded_cond f || List.exists (fun (_, a) -> guarded_cond a) args
  | P.Pexp_constraint (e, _) -> guarded_cond e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Syntactic shape helpers *)

(* number of leading unlabelled parameters; [None] when any parameter
   is labelled/optional (then partial application is never reported) *)
let nolabel_arity e =
  let rec go (e : P.expression) =
    match e.pexp_desc with
    | P.Pexp_fun (Asttypes.Nolabel, None, _, body) -> 1 + go body
    | P.Pexp_fun (_, _, _, _) -> raise Exit
    | P.Pexp_newtype (_, body) | P.Pexp_constraint (body, _) -> go body
    | _ -> 0
  in
  try Some (go e) with Exit -> None

(* a binding's leading parameters are module-init-time structure, not
   per-call allocation: strip them and return the body expression(s) *)
let rec strip_params (e : P.expression) : P.expression list =
  match e.pexp_desc with
  | P.Pexp_fun (_, _, _, body) | P.Pexp_newtype (_, body) | P.Pexp_constraint (body, _) ->
      strip_params body
  | P.Pexp_function cases ->
      List.concat_map
        (fun (c : P.case) ->
          (match c.P.pc_guard with Some g -> [ g ] | None -> []) @ [ c.P.pc_rhs ])
        cases
  | _ -> [ e ]

let lid_path txt =
  match Longident.flatten txt with "Stdlib" :: rest -> rest | path -> path

(* ------------------------------------------------------------------ *)
(* The site walk *)

(* [collect cg ~file ~may_alloc body_exprs] — every allocation site in
   the given expressions, in source order. [may_alloc] answers whether
   a resolved in-repo callee may allocate; pass [(fun _ -> false)] for
   the phase-1 direct scan (in-repo calls are then handled by the
   fixpoint instead). *)
let collect (cg : Cg.t) ~file ~(may_alloc : Cg.sym -> bool) (bodies : P.expression list) :
    site list =
  let sites = ref [] in
  let add (loc : Location.t) a_kind a_what =
    let p = loc.Location.loc_start in
    sites :=
      { a_kind; a_line = p.Lexing.pos_lnum; a_col = p.Lexing.pos_cnum - p.Lexing.pos_bol; a_what }
      :: !sites
  in
  let classify_apply self (e : P.expression) head args =
    let walk_args () =
      List.iter (fun (_, (a : P.expression)) -> self.Ast_iterator.expr self a) args
    in
    match head.P.pexp_desc with
    | P.Pexp_ident { txt; _ } -> (
        let path = lid_path txt in
        let key = String.concat "." path in
        if List.mem key float_ops then begin
          add e.P.pexp_loc Float_box (Printf.sprintf "float boxing via `%s`" key);
          walk_args ()
        end
        else
          match Cg.resolve_ref cg ~file path with
          | Some sym -> (
              match Cg.find cg sym with
              | Some b when b.Cg.is_mutable_value -> walk_args ()
              | Some b ->
                  if may_alloc sym then
                    add e.P.pexp_loc Alloc_call
                      (Printf.sprintf "call to `%s` which may allocate" (Cg.display sym));
                  (match nolabel_arity b.Cg.expr with
                  | Some arity
                    when arity > List.length args
                         && arity > 0
                         && List.for_all (fun (l, _) -> l = Asttypes.Nolabel) args ->
                      add e.P.pexp_loc Partial_app
                        (Printf.sprintf "partial application of `%s` (%d of %d arguments)"
                           (Cg.display sym) (List.length args) arity)
                  | _ -> ());
                  walk_args ()
              | None -> walk_args ())
          | None ->
              let norm = String.concat "." (Cg.normalize_ref cg ~file path) in
              if List.mem norm non_allocating then walk_args ()
              else if List.mem norm allocating then begin
                add e.P.pexp_loc Alloc_call (Printf.sprintf "allocating call to `%s`" norm);
                walk_args ()
              end
              else if List.length path > 1 then begin
                add e.P.pexp_loc Unknown_call
                  (Printf.sprintf "call to unresolved `%s` (assumed allocating)" norm);
                walk_args ()
              end
              else
                (* single-segment unresolved name: a parameter or local
                   [let] — local function bodies are walked in place, so
                   their sites are already reported *)
                walk_args ())
    | P.Pexp_field (_, { txt; _ }) ->
        add e.P.pexp_loc Unknown_call
          (Printf.sprintf "call through record field `%s`"
             (String.concat "." (Longident.flatten txt)));
        self.Ast_iterator.expr self head;
        walk_args ()
    | _ ->
        add e.P.pexp_loc Unknown_call "call through a computed function";
        self.Ast_iterator.expr self head;
        walk_args ()
  in
  let expr self (e : P.expression) =
    match e.P.pexp_desc with
    | P.Pexp_fun (_, _, _, _) | P.Pexp_function _ ->
        add e.P.pexp_loc Closure "closure construction";
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_lazy _ ->
        add e.P.pexp_loc Closure "lazy thunk construction";
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_tuple _ ->
        add e.P.pexp_loc Tuple "tuple boxing";
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_record (_, _) ->
        add e.P.pexp_loc Record "record boxing";
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_construct (_, None) -> ()
    | P.Pexp_construct ({ txt; _ }, Some _) ->
        add e.P.pexp_loc Variant
          (Printf.sprintf "constructor boxing `%s`"
             (String.concat "." (Longident.flatten txt)));
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_variant (tag, Some _) ->
        add e.P.pexp_loc Variant (Printf.sprintf "polymorphic variant boxing `%s`" tag);
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_array _ ->
        add e.P.pexp_loc Array_lit "array literal";
        Ast_iterator.default_iterator.expr self e
    | P.Pexp_ifthenelse (cond, _then_, else_) when guarded_cond cond ->
        (* tracing/audit-guarded slow path: off the hot path by the
           EObs contract, so its allocations are not counted *)
        Option.iter (self.Ast_iterator.expr self) else_
    | P.Pexp_apply (head, args) -> classify_apply self e head args
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  List.iter (it.Ast_iterator.expr it) bodies;
  List.rev !sites
  |> List.sort (fun a b ->
         match Int.compare a.a_line b.a_line with
         | 0 -> (
             match Int.compare a.a_col b.a_col with
             | 0 -> compare a.a_kind b.a_kind
             | c -> c)
         | c -> c)

(* ------------------------------------------------------------------ *)
(* may_allocate fixpoint *)

let no_alloc (_ : Cg.sym) = false

let may_allocate (cg : Cg.t) : Cg.sym -> bool =
  let state : (Cg.sym, bool) Hashtbl.t = Hashtbl.create 64 in
  (* direct: a syntactic allocation site in the binding's own body
     (in-repo calls excluded; the fixpoint adds them) *)
  List.iter
    (fun s ->
      match Cg.find cg s with
      | Some b when not b.Cg.is_mutable_value ->
          Hashtbl.replace state s
            (collect cg ~file:b.Cg.file ~may_alloc:no_alloc (strip_params b.Cg.expr) <> [])
      | _ -> ())
    cg.Cg.order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        match Cg.find cg s with
        | Some b when (not b.Cg.is_mutable_value) && Hashtbl.find_opt state s = Some false ->
            let v =
              List.exists
                (fun c ->
                  match Cg.find cg c with
                  | Some cb when not cb.Cg.is_mutable_value ->
                      Hashtbl.find_opt state c = Some true
                  | _ -> false)
                b.Cg.calls
            in
            if v then begin
              Hashtbl.replace state s true;
              changed := true
            end
        | _ -> ())
      cg.Cg.order
  done;
  fun s -> Hashtbl.find_opt state s = Some true

(* ------------------------------------------------------------------ *)
(* Reports and findings *)

let analyze (cg : Cg.t) : hot_report list =
  let may_alloc = may_allocate cg in
  List.filter_map
    (fun s ->
      match Cg.find cg s with
      | Some b when b.Cg.is_hot ->
          Some
            {
              h_sym = s;
              h_line = b.Cg.line;
              h_sites = collect cg ~file:b.Cg.file ~may_alloc (strip_params b.Cg.expr);
            }
      | _ -> None)
    cg.Cg.order

let findings_of_reports (reports : hot_report list) : Lint_core.finding list =
  List.concat_map
    (fun r ->
      if not (Lint_core.applies "hot-alloc" r.h_sym.Cg.s_file) then []
      else
        List.map
          (fun site ->
            {
              Lint_core.rule = "hot-alloc";
              file = r.h_sym.Cg.s_file;
              line = site.a_line;
              col = site.a_col;
              message =
                Printf.sprintf "[@@hot] `%s` allocates: %s [%s]" (Cg.display r.h_sym)
                  site.a_what (kind_name site.a_kind);
            })
          r.h_sites)
    reports
  |> List.sort (fun (a : Lint_core.finding) (b : Lint_core.finding) ->
         match String.compare a.file b.file with
         | 0 -> (
             match Int.compare a.line b.line with
             | 0 -> (
                 match Int.compare a.col b.col with
                 | 0 -> String.compare a.message b.message
                 | c -> c)
             | c -> c)
         | c -> c)

let findings (cg : Cg.t) = findings_of_reports (analyze cg)

let to_json (reports : hot_report list) =
  let json_escape = Lint_core.json_escape in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n  \"schema\": \"repro-lint/alloc/1\",\n";
  let total = List.fold_left (fun acc r -> acc + List.length r.h_sites) 0 reports in
  Buffer.add_string buf
    (Printf.sprintf "  \"summary\": {\"hot_functions\": %d, \"allocation_sites\": %d},\n"
       (List.length reports) total);
  Buffer.add_string buf "  \"hot\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"symbol\": \"%s\", \"file\": \"%s\", \"line\": %d, \"sites\": ["
           (json_escape (Effects.sym_id r.h_sym))
           (json_escape r.h_sym.Cg.s_file)
           r.h_line);
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"kind\": \"%s\", \"line\": %d, \"col\": %d, \"what\": \"%s\"}"
               (json_escape (kind_name s.a_kind))
               s.a_line s.a_col (json_escape s.a_what)))
        r.h_sites;
      Buffer.add_string buf "]}")
    reports;
  Buffer.add_string buf "\n  ],\n  \"findings\": [\n";
  List.iteri
    (fun i (f : Lint_core.finding) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Format.asprintf "    %a" Lint_core.pp_finding_json f))
    (findings_of_reports reports);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
