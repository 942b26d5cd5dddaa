(* Bandwidth-soundness pass (DESIGN.md §3i).

   The CONGEST reproduction charges every delivered message through
   [M.words] and caps it against [max_words] at runtime; this pass makes
   the accounting *statically* honest. Two halves:

   - Message-size verdicts. Every message module (a submodule or an
     anonymous functor-argument structure declaring both [type t] and
     [let words]) gets a static upper bound on its encoded size derived
     from the constructor/field types of [t] — [int] is one word,
     [bool]/[unit]/[char] ride in the header, tuples and records sum,
     variants take the max over constructors (tags are O(1) bits and
     ride free, matching the runtime convention), and a foreign [.t]
     counts as one opaque payload. The [words] body is abstractly
     evaluated to an interval of linear forms [c + p*payload]; if its
     maximum is below the content bound in either component, the module
     may undercharge and the build fails ([bandwidth-sound]). Algorithm
     messages (no payload component) additionally get an explicit
     "fits O(log n) bits per word, O(1) words" verdict;
     transport/recovery/detector wrappers must add only O(1) header
     words to a single payload.

   - Charging-site certification. Every binding that applies
     [Metrics.add_count] to [Words] / [Checkpoint_words] must carry
     [[@@charge_site]] (the audited accounting entry points), and the
     measure it charges must be derived from the same [words] measure
     the verdicts bound: a local accumulator only ever reset to a
     constant or bumped by [!acc + w] where [w] traces back to an
     [M.words] application, a direct [M.words m], or [Array.length]
     (checkpoint snapshots are arrays of words by contract). Anything
     else is an inconsistent measure ([bandwidth-charge]).

   Purely syntactic, like the rest of the lint: types are matched by
   name, so a type alias hiding an unbounded payload behind [int] is
   invisible (caveats in DESIGN.md §3i). *)

module Cg = Callgraph
module P = Parsetree

(* ------------------------------------------------------------------ *)
(* Linear word bounds: [c + p * payload] *)

type lin = { c : int; p : int }

type chg = { bmin : lin; bmax : lin }

let lin_add a b = { c = a.c + b.c; p = a.p + b.p }
let lin_max a b = { c = max a.c b.c; p = max a.p b.p }
let lin_min a b = { c = min a.c b.c; p = min a.p b.p }
let lin_scale k a = { c = k * a.c; p = k * a.p }
let lin_geq a b = a.c >= b.c && a.p >= b.p

let lin_str l =
  match (l.c, l.p) with
  | c, 0 -> string_of_int c
  | 0, 1 -> "payload"
  | 0, p -> Printf.sprintf "%d*payload" p
  | c, 1 -> Printf.sprintf "%d + payload" c
  | c, p -> Printf.sprintf "%d + %d*payload" c p

let rec lid_flat (l : Longident.t) =
  match l with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> lid_flat p @ [ s ]
  | Longident.Lapply _ -> []

let normtext e =
  let s = Pprintast.string_of_expression e in
  let b = Buffer.create (String.length s) in
  let last_space = ref false in
  String.iter
    (fun ch ->
      if ch = ' ' || ch = '\n' || ch = '\t' then begin
        if not !last_space then Buffer.add_char b ' ';
        last_space := true
      end
      else begin
        Buffer.add_char b ch;
        last_space := false
      end)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Content bound from the declaration of [type t] *)

let rec type_cost (ct : P.core_type) : lin option =
  match ct.P.ptyp_desc with
  | P.Ptyp_constr ({ txt; _ }, args) -> (
      let path =
        match lid_flat txt with "Stdlib" :: rest -> rest | path -> path
      in
      match (path, args) with
      | [ "int" ], [] -> Some { c = 1; p = 0 }
      | ([ "bool" ] | [ "unit" ] | [ "char" ]), [] ->
          (* O(1) bits: rides in the header word by the runtime convention *)
          Some { c = 0; p = 0 }
      | [ "option" ], [ a ] -> type_cost a (* bound by the Some case *)
      | p, [] when List.length p >= 2 && List.nth p (List.length p - 1) = "t" ->
          (* a foreign message type ([M.t], [P.Msg.t]): one opaque payload *)
          Some { c = 0; p = 1 }
      | _ -> None)
  | P.Ptyp_tuple l ->
      List.fold_left
        (fun acc ct ->
          match (acc, type_cost ct) with
          | Some a, Some b -> Some (lin_add a b)
          | _ -> None)
        (Some { c = 0; p = 0 })
        l
  | _ -> None

let decl_cost (d : P.type_declaration) : lin option =
  let sum cts =
    List.fold_left
      (fun acc ct ->
        match (acc, type_cost ct) with Some a, Some b -> Some (lin_add a b) | _ -> None)
      (Some { c = 0; p = 0 })
      cts
  in
  match (d.P.ptype_kind, d.P.ptype_manifest) with
  | P.Ptype_abstract, Some m -> type_cost m
  | P.Ptype_record labels, _ -> sum (List.map (fun l -> l.P.pld_type) labels)
  | P.Ptype_variant constrs, _ ->
      (* max over constructors; the tag is O(1) bits and rides free *)
      List.fold_left
        (fun acc (c : P.constructor_declaration) ->
          let args =
            match c.P.pcd_args with
            | P.Pcstr_tuple cts -> sum cts
            | P.Pcstr_record ls -> sum (List.map (fun l -> l.P.pld_type) ls)
          in
          match (acc, args) with Some a, Some b -> Some (lin_max a b) | _ -> None)
        (Some { c = 0; p = 0 })
        constrs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Charged bound from the [words] body *)

let int_const (e : P.expression) =
  match e.P.pexp_desc with
  | P.Pexp_constant (P.Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

let is_words_head (e : P.expression) =
  match e.P.pexp_desc with
  | P.Pexp_ident { txt; _ } -> (
      match List.rev (lid_flat txt) with "words" :: _ :: _ -> true | _ -> false)
  | _ -> false

let rec charge_of (e : P.expression) : chg option =
  let point l = Some { bmin = l; bmax = l } in
  let arms es =
    List.fold_left
      (fun acc a ->
        match (acc, charge_of a) with
        | None, _ | _, None -> None
        | Some x, Some y ->
            Some { bmin = lin_min x.bmin y.bmin; bmax = lin_max x.bmax y.bmax })
      (charge_of (List.hd es))
      (List.tl es)
  in
  match e.P.pexp_desc with
  | _ when int_const e <> None -> (
      match int_const e with
      | Some n when n >= 0 -> point { c = n; p = 0 }
      | _ -> None)
  | P.Pexp_constraint (x, _) -> charge_of x
  | P.Pexp_ifthenelse (_, t, Some el) -> arms [ t; el ]
  | P.Pexp_ifthenelse (_, t, None) -> (
      match charge_of t with
      | Some x ->
          Some { bmin = lin_min x.bmin { c = 0; p = 0 }; bmax = x.bmax }
      | None -> None)
  | P.Pexp_match (_, cases) | P.Pexp_function cases ->
      arms (List.map (fun c -> c.P.pc_rhs) cases)
  | P.Pexp_apply (head, args) when is_words_head head && args <> [] ->
      (* [M.words m]: exactly one opaque payload *)
      point { c = 0; p = 1 }
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident "+"; _ }; _ }, [ (_, a); (_, b) ])
    -> (
      match (charge_of a, charge_of b) with
      | Some x, Some y ->
          Some { bmin = lin_add x.bmin y.bmin; bmax = lin_add x.bmax y.bmax }
      | _ -> None)
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident "*"; _ }; _ }, [ (_, a); (_, b) ])
    -> (
      let scale k x =
        match x with
        | Some x when k >= 0 -> Some { bmin = lin_scale k x.bmin; bmax = lin_scale k x.bmax }
        | _ -> None
      in
      match (int_const a, int_const b) with
      | Some k, _ -> scale k (charge_of b)
      | _, Some k -> scale k (charge_of a)
      | _ -> None)
  | _ -> None

let rec strip_params (e : P.expression) =
  match e.P.pexp_desc with
  | P.Pexp_fun (_, _, _, body) -> strip_params body
  | P.Pexp_constraint (body, _) -> strip_params body
  | P.Pexp_newtype (_, body) -> strip_params body
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Candidate discovery: message modules with [type t] and [let words] *)

type candidate = {
  cand_name : string;
  cand_file : string;
  cand_line : int;
  cand_decl : P.type_declaration;
  cand_words : P.expression;
}

let structure_candidate items =
  let decl = ref None and words = ref None in
  List.iter
    (fun (item : P.structure_item) ->
      match item.P.pstr_desc with
      | P.Pstr_type (_, decls) -> (
          match List.find_opt (fun d -> d.P.ptype_name.Asttypes.txt = "t") decls with
          | Some d when !decl = None -> decl := Some d
          | _ -> ())
      | P.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : P.value_binding) ->
              match vb.P.pvb_pat.P.ppat_desc with
              | P.Ppat_var { txt = "words"; _ } when !words = None ->
                  words := Some (vb.P.pvb_expr, vb.P.pvb_loc.Location.loc_start.Lexing.pos_lnum)
              | _ -> ())
            vbs
      | _ -> ())
    items;
  match (!decl, !words) with Some d, Some (w, line) -> Some (d, w, line) | _ -> None

let candidates_of (file, (structure : P.structure)) : candidate list =
  let acc = ref [] in
  let modname = Cg.module_of_file file in
  let add prefix items =
    match structure_candidate items with
    | Some (d, w, line) ->
        acc :=
          {
            cand_name = String.concat "." (modname :: List.rev prefix);
            cand_file = file;
            cand_line = line;
            cand_decl = d;
            cand_words = w;
          }
          :: !acc
    | None -> ()
  in
  let rec scan_mod prefix (me : P.module_expr) =
    match me.P.pmod_desc with
    | P.Pmod_structure items ->
        (* only submodules / functor arguments: a file's top level is the
           module's public surface, not a message envelope (Metrics has a
           top-level [words] accessor) *)
        if prefix <> [] then add prefix items;
        scan_items prefix items
    | P.Pmod_functor (_, body) -> scan_mod prefix body
    | P.Pmod_apply (f, arg) ->
        scan_mod prefix f;
        scan_mod prefix arg
    | P.Pmod_constraint (m, _) -> scan_mod prefix m
    | _ -> ()
  and scan_items prefix items =
    List.iter
      (fun (item : P.structure_item) ->
        match item.P.pstr_desc with
        | P.Pstr_module mb ->
            let name = match mb.P.pmb_name.Asttypes.txt with Some n -> n | None -> "_" in
            scan_mod (name :: prefix) mb.P.pmb_expr
        | P.Pstr_recmodule mbs ->
            List.iter
              (fun (mb : P.module_binding) ->
                let name =
                  match mb.P.pmb_name.Asttypes.txt with Some n -> n | None -> "_"
                in
                scan_mod (name :: prefix) mb.P.pmb_expr)
              mbs
        | _ -> ())
      items
  in
  scan_items [] structure;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Verdicts *)

type verdict = {
  v_name : string;
  v_file : string;
  v_line : int;
  v_algo : string;
  v_kind : string;  (** ["algorithm"] (O(1) words) or ["wrapper"] (payload + O(1)) *)
  v_content : string;
  v_charged : string;
  v_ok : bool;
  v_note : string;
}

type report = {
  b_verdicts : verdict list;
  b_findings : Lint_core.finding list;
  b_charge_sites : int;
  b_all_pass : bool;
}

let algo_of_file file = Filename.remove_extension (Filename.basename file)

let verdict_of (c : candidate) : verdict * Lint_core.finding list =
  let finding message =
    { Lint_core.rule = "bandwidth-sound"; file = c.cand_file; line = c.cand_line; col = 0; message }
  in
  let content = decl_cost c.cand_decl in
  let charged = charge_of (strip_params c.cand_words) in
  let algo = algo_of_file c.cand_file in
  let base ~kind ~ok ~note findings =
    ( {
        v_name = c.cand_name;
        v_file = c.cand_file;
        v_line = c.cand_line;
        v_algo = algo;
        v_kind = kind;
        v_content = (match content with Some l -> lin_str l | None -> "?");
        v_charged = (match charged with Some ch -> lin_str ch.bmax | None -> "?");
        v_ok = ok;
        v_note = note;
      },
      findings )
  in
  match (content, charged) with
  | None, _ ->
      base ~kind:"unknown" ~ok:false ~note:"content bound underivable"
        [
          finding
            (Printf.sprintf
               "message module `%s`: cannot derive a static size bound from its `type t` \
                (unknown field type); bound the type or justify in the baseline"
               c.cand_name);
        ]
  | _, None ->
      base ~kind:"unknown" ~ok:false ~note:"charging bound underivable"
        [
          finding
            (Printf.sprintf
               "message module `%s`: cannot derive a static charging bound from its `words` \
                body (`%s`); keep it a constant/match/sum over `M.words`"
               c.cand_name (normtext (strip_params c.cand_words)));
        ]
  | Some content, Some charged ->
      let undercharge = not (lin_geq charged.bmax content) in
      let kind = if content.p = 0 && charged.bmax.p = 0 then "algorithm" else "wrapper" in
      let fs =
        if undercharge then
          [
            finding
              (Printf.sprintf
                 "message module `%s` may undercharge: static content bound is %s word(s) \
                  but `words` charges at most %s — every accepted word must be accounted"
                 c.cand_name (lin_str content) (lin_str charged.bmax));
          ]
        else []
      in
      let payload_blowup = kind = "wrapper" && charged.bmax.p > 1 in
      let fs =
        if payload_blowup then
          finding
            (Printf.sprintf
               "message wrapper `%s` charges %d payloads per message; the CONGEST \
                envelope must carry one payload plus O(1) header words"
               c.cand_name charged.bmax.p)
          :: fs
        else fs
      in
      let ok = not undercharge && not payload_blowup in
      let note =
        if not ok then "undercharge"
        else if kind = "algorithm" then
          Printf.sprintf "O(1): <= %d word(s) of O(log n) bits per message" charged.bmax.c
        else Printf.sprintf "payload + <= %d header word(s)" charged.bmax.c
      in
      base ~kind ~ok ~note fs

(* ------------------------------------------------------------------ *)
(* Charging-site certification *)

(* [add_count m Words k] / [add_count m Checkpoint_words k], bare or
   [Metrics.]-qualified: the counter and the measure [k] it charges *)
let charge_target (head : P.expression) args =
  match (head.P.pexp_desc, List.filter (fun (l, _) -> l = Asttypes.Nolabel) args) with
  | ( P.Pexp_ident { txt; _ },
      _ :: (_, { P.pexp_desc = P.Pexp_construct ({ txt = c; _ }, None); _ }) :: measure ) -> (
      match (List.rev (lid_flat txt), List.rev (lid_flat c)) with
      | "add_count" :: ("Metrics" :: _ | []), (("Words" | "Checkpoint_words") as k) :: _ ->
          Some ("add_count " ^ k, match measure with (_, m) :: _ -> Some m | [] -> None)
      | _ -> None)
  | _ -> None

type charge_app = { ca_fn : string; ca_measure : P.expression option; ca_line : int; ca_col : int }

(* collect charge applications, local [let] definitions and [:=]
   assignments inside one binding body *)
let collect_binding (body : P.expression) =
  let apps = ref [] and defs = Hashtbl.create 16 and assigns = Hashtbl.create 8 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.P.pexp_desc with
          | P.Pexp_apply (head, args) -> (
              match charge_target head args with
              | Some (fn, measure) ->
                  let pos = e.P.pexp_loc.Location.loc_start in
                  apps :=
                    {
                      ca_fn = fn;
                      ca_measure = measure;
                      ca_line = pos.Lexing.pos_lnum;
                      ca_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
                    }
                    :: !apps
              | None -> (
                  match (head.P.pexp_desc, args) with
                  | ( P.Pexp_ident { txt = Longident.Lident ":="; _ },
                      [
                        (_, { P.pexp_desc = P.Pexp_ident { txt = Longident.Lident r; _ }; _ });
                        (_, rhs);
                      ] ) ->
                      Hashtbl.add assigns r rhs
                  | _ -> ()))
          | P.Pexp_let (_, vbs, _) ->
              List.iter
                (fun (vb : P.value_binding) ->
                  match vb.P.pvb_pat.P.ppat_desc with
                  | P.Ppat_var { txt; _ } -> Hashtbl.replace defs txt vb.P.pvb_expr
                  | _ -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e)
    }
  in
  it.Ast_iterator.expr it body;
  (List.rev !apps, defs, assigns)

(* does [e] trace back to an [M.words] application? *)
let rec words_derived depth defs (e : P.expression) =
  depth < 8
  &&
  match e.P.pexp_desc with
  | P.Pexp_apply (head, _) -> is_words_head head
  | P.Pexp_ident { txt = Longident.Lident x; _ } -> (
      match Hashtbl.find_opt defs x with
      | Some d -> words_derived (depth + 1) defs d
      | None -> false)
  | _ -> false

let deref (e : P.expression) =
  match e.P.pexp_desc with
  | P.Pexp_apply
      ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
        [ (_, { P.pexp_desc = P.Pexp_ident { txt = Longident.Lident r; _ }; _ }) ] ) ->
      Some r
  | _ -> None

let is_array_length (e : P.expression) =
  match e.P.pexp_desc with
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _ :: _) -> (
      match lid_flat txt with
      | [ "Array"; "length" ] | [ "Stdlib"; "Array"; "length" ] -> true
      | _ -> false)
  | _ -> false

(* an assignment [r := rhs] keeps the accumulator words-consistent when
   it resets to a constant or bumps by a words-derived increment *)
let assign_ok defs r (rhs : P.expression) =
  match int_const rhs with
  | Some _ -> true
  | None -> (
      match rhs.P.pexp_desc with
      | P.Pexp_apply
          ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident "+"; _ }; _ }, [ (_, a); (_, b) ])
        -> (
          match (deref a, deref b) with
          | Some r', _ when r' = r -> words_derived 0 defs b
          | _, Some r' when r' = r -> words_derived 0 defs a
          | _ -> false)
      | _ -> false)

let charge_findings (cg : Cg.t) =
  let findings = ref [] and certified = ref 0 in
  List.iter
    (fun sym ->
      match Cg.find cg sym with
      | None -> ()
      | Some b when not (Lint_core.applies "bandwidth-charge" b.Cg.file) -> ()
      | Some b ->
          let apps, defs, assigns = collect_binding b.Cg.expr in
          List.iter
            (fun ca ->
              let bad message =
                findings :=
                  {
                    Lint_core.rule = "bandwidth-charge";
                    file = b.Cg.file;
                    line = ca.ca_line;
                    col = ca.ca_col;
                    message;
                  }
                  :: !findings
              in
              let site_ok = b.Cg.is_charge_site in
              if not site_ok then
                bad
                  (Printf.sprintf
                     "`%s` charges Metrics.%s but is not annotated [@@charge_site]: every \
                      message/storage accounting entry point must be audited (DESIGN.md §3i)"
                     (Cg.display sym) ca.ca_fn);
              let measure_ok =
                match ca.ca_measure with
                | None -> false
                | Some m -> (
                    if is_array_length m || words_derived 0 defs m then true
                    else
                      match deref m with
                      | Some r -> (
                          match Hashtbl.find_all assigns r with
                          | [] -> false
                          | rhss -> List.for_all (assign_ok defs r) rhss)
                      | None -> false)
              in
              if not measure_ok then
                bad
                  (Printf.sprintf
                     "`%s` charges Metrics.%s with measure `%s`, which does not reduce to \
                      an M.words accumulation or Array.length: the runtime account would \
                      diverge from the certified static bound"
                     (Cg.display sym) ca.ca_fn
                     (match ca.ca_measure with Some m -> normtext m | None -> "<none>"));
              if site_ok && measure_ok then incr certified)
            apps)
    cg.Cg.order;
  (List.rev !findings, !certified)

(* ------------------------------------------------------------------ *)

let analyze (cg : Cg.t) (parsed : (string * P.structure) list) : report =
  let verdicts = ref [] and findings = ref [] in
  List.iter
    (fun fs ->
      List.iter
        (fun c ->
          let v, fs = verdict_of c in
          verdicts := v :: !verdicts;
          findings := List.rev_append fs !findings)
        (candidates_of fs))
    parsed;
  let charge_fs, certified = charge_findings cg in
  let findings =
    List.sort
      (fun (a : Lint_core.finding) (b : Lint_core.finding) ->
        match String.compare a.file b.file with
        | 0 -> (
            match Int.compare a.line b.line with
            | 0 -> (
                match Int.compare a.col b.col with
                | 0 -> String.compare a.message b.message
                | c -> c)
            | c -> c)
        | c -> c)
      (List.rev_append !findings charge_fs)
  in
  let verdicts = List.rev !verdicts in
  {
    b_verdicts = verdicts;
    b_findings = findings;
    b_charge_sites = certified;
    b_all_pass = findings = [] && List.for_all (fun v -> v.v_ok) verdicts;
  }

let findings_of_report r = r.b_findings

let to_json (r : report) =
  let esc = Lint_core.json_escape in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"repro-lint/bandwidth/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"candidates\": %d, \"algorithms\": %d, \"charge_sites\": %d, \
        \"findings\": %d, \"all_pass\": %b},\n"
       (List.length r.b_verdicts)
       (List.length (List.filter (fun v -> v.v_kind = "algorithm") r.b_verdicts))
       r.b_charge_sites
       (List.length r.b_findings)
       r.b_all_pass);
  Buffer.add_string buf "  \"verdicts\": [\n";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"algorithm\": \"%s\", \"kind\": \"%s\", \"file\": \
            \"%s\", \"line\": %d, \"content_words\": \"%s\", \"charged_words\": \"%s\", \
            \"verdict\": \"%s\", \"note\": \"%s\"}"
           (esc v.v_name) (esc v.v_algo) (esc v.v_kind) (esc v.v_file) v.v_line
           (esc v.v_content) (esc v.v_charged)
           (if v.v_ok then "pass" else "fail")
           (esc v.v_note)))
    r.b_verdicts;
  Buffer.add_string buf "\n  ],\n  \"findings\": [\n";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Format.asprintf "    %a" Lint_core.pp_finding_json f))
    r.b_findings;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
