(* Width-soundness pass (DESIGN.md §3i): interval abstract
   interpretation over every linted [.ml], certifying the ints that
   flow into [Bitio.put ~bits] / [Bitio.get ~bits].

   The bit-packed codec is maximally fragile by design ("both sides
   must agree on field order and widths — there is no in-band typing",
   lib/serve/bitio.mli): a silently truncated field returns a *wrong
   distance*, not an error. This pass fails the build when

   - (width-trunc) a written value's range may exceed [2^bits - 1];
   - (width-range) a width expression may leave [0, 30];
   - (codec-mismatch) a writer/reader pair's put/get field traces
     (order + width expressions, matched symbolically) disagree.

   The abstract domain is a saturating interval extended with three
   symbolic refinements that make the real codec certifiable without
   annotations:

   - mask_of w:    the value is [(1 lsl w) - 1] for a width ident [w]
                   (sentinel writes fit their field by construction);
   - bound (m, k): the value is at most [!m + k] for a local max-fold
                   ref [m] ([if e > !m then m := e] registers a fact
                   for [e]'s text and its let-definition's text);
   - wof (m, j):   the value is a width satisfying [2^w - 1 >= !m + j]
                   (result of [Bitio.bits_needed (!m + j)], directly
                   or through a width-helper like [Codec.field_width]).

   A write certifies if its range fits [2^lo(bits) - 1], or mask/width
   idents agree, or bound dominates wof ([k <= j]). Branch conditions
   and diverging guards ([if c then invalid_arg ...]) refine by the
   *printed text* of subexpressions, so array loads like [f1.(i)] are
   refined exactly like idents. Soundness caveats (textual matching,
   single-pass loop bodies, locals-only refs) are documented in
   DESIGN.md §3i. *)

module Cg = Callgraph
module P = Parsetree

(* ------------------------------------------------------------------ *)
(* Saturating intervals *)

let max_i = max_int / 2

type iv = { lo : int; hi : int }

let top_iv = { lo = -max_i; hi = max_i }
let sat v = if v > max_i then max_i else if v < -max_i then -max_i else v
let point n = { lo = sat n; hi = sat n }

let iv_str { lo; hi } =
  let b v =
    if v >= max_i then "+inf" else if v <= -max_i then "-inf" else string_of_int v
  in
  Printf.sprintf "[%s, %s]" (b lo) (b hi)

let smul a b =
  if a = 0 || b = 0 then 0
  else
    let s = if (a > 0) = (b > 0) then 1 else -1 in
    let aa = abs a and ab = abs b in
    if aa > max_i / ab then s * max_i else sat (a * b)

let iv_mul a b =
  let p1 = smul a.lo b.lo and p2 = smul a.lo b.hi in
  let p3 = smul a.hi b.lo and p4 = smul a.hi b.hi in
  { lo = min (min p1 p2) (min p3 p4); hi = max (max p1 p2) (max p3 p4) }

(* smallest [2^k - 1] covering [h] *)
let mask_up h =
  if h <= 0 then 0
  else begin
    let m = ref 1 in
    while !m < h && !m < max_i do
      m := (!m * 2) + 1
    done;
    !m
  end

let pow2m1 n = if n >= 62 then max_i else if n < 0 then 0 else sat ((1 lsl n) - 1)

(* ------------------------------------------------------------------ *)
(* Abstract values *)

type av = {
  iv : iv;
  mask_of : string option;  (* value = 2^w - 1 for width ident w *)
  bound : (string * int) option;  (* value <= !m + k for fold ref m *)
  wof : (string * int) option;  (* value is a width: 2^v - 1 >= !m + j *)
  src : string option;  (* the ident this value was read from *)
  prov : string list;  (* data-flow chain, oldest first *)
}

let top = { iv = top_iv; mask_of = None; bound = None; wof = None; src = None; prov = [] }
let const n = { top with iv = point n }
let with_prov av p = { av with prov = (if List.length av.prov > 5 then av.prov else av.prov @ [ p ]) }

(* ------------------------------------------------------------------ *)
(* Analysis context *)

type fact = { mutable f_ge : int option; mutable f_le : (string * int) option }

type rinfo = {
  r_init : av;
  r_min : int;  (* guaranteed minimum over the ref's lifetime *)
  r_fold : bool;  (* every assignment is a max-fold [if e > !m then m := e] *)
  r_assigned : bool;
}

type ctx = {
  cg : Cg.t;
  mutable file : string;
  mutable report : bool;
  mutable findings : Lint_core.finding list;
  facts : (string, fact) Hashtbl.t;  (* printed text -> known bounds *)
  refs : (string, rinfo) Hashtbl.t;  (* local refs of the current binding *)
  arrays : (string, av ref) Hashtbl.t;  (* local arrays: one joined element value *)
  defs : (string, string) Hashtbl.t;  (* ident -> printed text of its definition *)
  mutable refines : (string * iv) list;  (* path-sensitive text refinements *)
  mutable puts : int;
  mutable gets : int;
}

module StrMap = Map.Make (String)

let normtext e =
  let s = try Pprintast.string_of_expression e with _ -> "<expr>" in
  let buf = Buffer.create (String.length s) in
  let last_sp = ref false in
  String.iter
    (fun c ->
      if c = '\n' || c = '\t' || c = ' ' then begin
        if not !last_sp then Buffer.add_char buf ' ';
        last_sp := true
      end
      else begin
        Buffer.add_char buf c;
        last_sp := false
      end)
    s;
  Buffer.contents buf

let lid_path txt =
  match Longident.flatten txt with "Stdlib" :: rest -> rest | path -> path

let int_const (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_constant (P.Pconst_integer (s, None)) -> int_of_string_opt s
  | P.Pexp_apply
      ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident "~-"; _ }; _ },
        [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_constant (P.Pconst_integer (s, None)); _ }) ] )
    ->
      Option.map (fun v -> -v) (int_of_string_opt s)
  | _ -> None

(* [!m] / [!m + c] / [!m - c] -> (m, c) *)
let deref_form (e : P.expression) =
  let deref (e : P.expression) =
    match e.pexp_desc with
    | P.Pexp_apply
        ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
          [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ }) ]
        ) ->
        Some m
    | _ -> None
  in
  match deref e with
  | Some m -> Some (m, 0)
  | None -> (
      match e.pexp_desc with
      | P.Pexp_apply
          ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident (("+" | "-") as op); _ }; _ },
            [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) -> (
          match (deref a, int_const b) with
          | Some m, Some c -> Some (m, if op = "+" then c else -c)
          | _ -> None)
      | _ -> None)

(* diverging expressions end the path: guards like
   [if c then invalid_arg ...] refine the rest of the sequence *)
let rec diverges (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _) -> (
      match lid_path txt with
      | [ ("invalid_arg" | "failwith" | "raise" | "raise_notrace") ] -> true
      | _ -> false)
  | P.Pexp_sequence (_, b) | P.Pexp_let (_, _, b) | P.Pexp_open (_, b) -> diverges b
  | P.Pexp_ifthenelse (_, t, Some e) -> diverges t && diverges e
  | _ -> false

let pattern_vars p =
  let vars = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.P.ppat_desc with
          | P.Ppat_var { txt; _ } | P.Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !vars

(* ------------------------------------------------------------------ *)
(* Facts and refinements *)

let fact_for ctx key =
  match Hashtbl.find_opt ctx.facts key with
  | Some f -> f
  | None ->
      let f = { f_ge = None; f_le = None } in
      Hashtbl.add ctx.facts key f;
      f

let keys_of ctx (e : P.expression) =
  let t = normtext e in
  match e.pexp_desc with
  | P.Pexp_ident { txt = Longident.Lident x; _ } -> (
      match Hashtbl.find_opt ctx.defs x with Some d when d <> t -> [ t; d ] | _ -> [ t ])
  | _ -> [ t ]

let apply_facts ctx e av =
  let t = normtext e in
  match Hashtbl.find_opt ctx.facts t with
  | None -> av
  | Some f ->
      let av =
        match f.f_ge with
        | Some g when g > av.iv.lo ->
            with_prov
              { av with iv = { av.iv with lo = g } }
              (Printf.sprintf "`%s` >= %d (diverging guard)" t g)
        | _ -> av
      in
      (match f.f_le with
      | Some (m, k) when av.bound = None ->
          with_prov
            { av with bound = Some (m, k) }
            (Printf.sprintf "`%s` <= !%s%s (max-fold)" t m
               (if k = 0 then "" else Printf.sprintf " %+d" k))
      | _ -> av)

let apply_refines ctx e av =
  let t = normtext e in
  List.fold_left
    (fun av (key, r) ->
      if key <> t then av
      else
        {
          av with
          iv = { lo = max av.iv.lo r.lo; hi = min av.iv.hi r.hi };
        })
    av ctx.refines

(* constraint entries implied by [cond] being [polarity]. The [peek]
   evaluation of comparands must not re-report findings or re-count
   sites, so reporting is suspended around it. *)
let refine_entries ctx peek cond polarity =
  let peek e =
    let saved = ctx.report in
    ctx.report <- false;
    let av = peek e in
    ctx.report <- saved;
    av
  in
  let rec go (cond : P.expression) polarity acc =
    match cond.pexp_desc with
    | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ]) -> (
        match lid_path txt with
        | [ "&&" ] when polarity -> go b polarity (go a polarity acc)
        | [ "||" ] when not polarity -> go b polarity (go a polarity acc)
        | [ (("<" | "<=" | ">" | ">=" | "=" | "<>") as op) ] ->
            let entries x (y : iv) op =
              (* x OP y, known true; constants need no refinement *)
              if int_const x <> None then []
              else
              let r =
                match op with
                | "<" -> Some { top_iv with hi = sat (y.hi - 1) }
                | "<=" -> Some { top_iv with hi = y.hi }
                | ">" -> Some { top_iv with lo = sat (y.lo + 1) }
                | ">=" -> Some { top_iv with lo = y.lo }
                | "=" -> Some y
                | _ -> None
              in
              match r with
              | None -> []
              | Some r -> List.map (fun k -> (k, r)) (keys_of ctx x)
            in
            let flip = function
              | "<" -> ">="
              | "<=" -> ">"
              | ">" -> "<="
              | ">=" -> "<"
              | "=" -> "<>"
              | _ -> "="
            in
            let op = if polarity then op else flip op in
            let mirror = function
              | "<" -> ">"
              | "<=" -> ">="
              | ">" -> "<"
              | ">=" -> "<="
              | o -> o
            in
            let bi = (peek b : av).iv and ai = (peek a : av).iv in
            entries a bi op @ entries b ai (mirror op) @ acc
        | [ "not" ] -> acc
        | _ -> acc)
    | P.Pexp_apply
        ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident "not"; _ }; _ }, [ (_, a) ]) ->
        go a (not polarity) acc
    | _ -> acc
  in
  go cond polarity []

(* ------------------------------------------------------------------ *)
(* Join / meet *)

let ref_min ctx m = match Hashtbl.find_opt ctx.refs m with Some r -> r.r_min | None -> -max_i

let join ctx a b =
  let bound =
    match (a.bound, b.bound) with
    | Some x, Some y when x = y -> Some x
    | Some (m, k), None when b.iv.hi <= sat (ref_min ctx m + k) -> Some (m, k)
    | None, Some (m, k) when a.iv.hi <= sat (ref_min ctx m + k) -> Some (m, k)
    | _ -> None
  in
  {
    iv = { lo = min a.iv.lo b.iv.lo; hi = max a.iv.hi b.iv.hi };
    mask_of = (if a.mask_of = b.mask_of then a.mask_of else None);
    bound;
    wof = (if a.wof = b.wof then a.wof else None);
    src = None;
    prov =
      (let p = a.prov @ b.prov in
       if List.length p > 6 then a.prov else p);
  }

(* ------------------------------------------------------------------ *)
(* Callee summaries *)

type summaries = {
  memo : (Cg.sym, av) Hashtbl.t;
  in_progress : (Cg.sym, unit) Hashtbl.t;
  wof_memo : (Cg.sym, int option) Hashtbl.t;
}

let rec strip_fun_params acc (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_fun (_, _, pat, body) -> strip_fun_params (pattern_vars pat @ acc) body
  | P.Pexp_newtype (_, body) | P.Pexp_constraint (body, _) -> strip_fun_params acc body
  | _ -> (acc, e)

(* width-helper detection: [let f .. m = let w = Bitio.bits_needed (m + c) in
   ...; w] summarizes to a width with [wof] offset [c] of the call's
   last argument *)
let wof_offset_of (b : Cg.binding) =
  let params, body = strip_fun_params [] b.Cg.expr in
  match params with
  | [] -> None
  | last :: _ -> (
      match body.pexp_desc with
      | P.Pexp_let
          ( Asttypes.Nonrecursive,
            [ { pvb_pat = { ppat_desc = P.Ppat_var { txt = w; _ }; _ }; pvb_expr = rhs; _ } ],
            cont ) -> (
          let is_bits_needed (h : P.expression) =
            match h.pexp_desc with
            | P.Pexp_ident { txt; _ } -> (
                match List.rev (lid_path txt) with "bits_needed" :: _ -> true | _ -> false)
            | _ -> false
          in
          let arg_offset (a : P.expression) =
            match a.pexp_desc with
            | P.Pexp_ident { txt = Longident.Lident x; _ } when x = last -> Some 0
            | P.Pexp_apply
                ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident (("+" | "-") as op); _ }; _ },
                  [
                    (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident x; _ }; _ });
                    (Asttypes.Nolabel, c);
                  ] )
              when x = last ->
                Option.map (fun c -> if op = "+" then c else -c) (int_const c)
            | _ -> None
          in
          let rec returns_w (e : P.expression) =
            match e.pexp_desc with
            | P.Pexp_ident { txt = Longident.Lident x; _ } -> x = w
            | P.Pexp_sequence (_, b) | P.Pexp_let (_, _, b) -> returns_w b
            | _ -> false
          in
          match rhs.pexp_desc with
          | P.Pexp_apply (h, [ (Asttypes.Nolabel, a) ])
            when is_bits_needed h && returns_w cont ->
              arg_offset a
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* The abstract interpreter *)

type call_kind =
  | KPut
  | KGet
  | KPutVarint
  | KGetVarint
  | KBitsNeeded
  | KRepo of Cg.sym
  | KExt of string list

let call_kind ctx path =
  let classify = function
    | [ "Bitio"; "put" ] -> Some KPut
    | [ "Bitio"; "get" ] -> Some KGet
    | [ "Bitio"; "put_varint" ] -> Some KPutVarint
    | [ "Bitio"; "get_varint" ] -> Some KGetVarint
    | [ "Bitio"; "bits_needed" ] -> Some KBitsNeeded
    | _ -> None
  in
  match Cg.resolve_ref ctx.cg ~file:ctx.file path with
  | Some sym -> (
      match classify (String.split_on_char '.' (Cg.display sym)) with
      | Some k -> k
      | None -> KRepo sym)
  | None -> (
      let norm = Cg.normalize_ref ctx.cg ~file:ctx.file path in
      match classify norm with Some k -> k | None -> KExt norm)

let rec exec (summ : summaries) ctx (env : av StrMap.t) (e : P.expression) : av =
  let self env e = exec summ ctx env e in
  let report rule (loc : Location.t) message =
    if ctx.report then begin
      let p = loc.Location.loc_start in
      ctx.findings <-
        {
          Lint_core.rule;
          file = ctx.file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          message;
        }
        :: ctx.findings
    end
  in
  let finish av = apply_refines ctx e (apply_facts ctx e av) in
  let chain av =
    match av.prov with
    | [] -> ""
    | p -> "; data-flow: " ^ String.concat " <- " (List.rev p)
  in
  (* width argument description at a put/get site *)
  let width_info (we : P.expression) =
    let av = self env we in
    let src =
      match we.pexp_desc with
      | P.Pexp_ident { txt = Longident.Lident x; _ } -> Some x
      | _ -> av.src
    in
    (av, src)
  in
  let check_width (site : P.expression) (we : P.expression) (wav : av) =
    if ctx.report && not (wav.iv.lo >= 0 && wav.iv.hi <= 30) then
      report "width-range" site.P.pexp_loc
        (Printf.sprintf "width `%s` may leave [0, 30]: inferred %s%s" (normtext we)
           (iv_str wav.iv) (chain wav))
  in
  (* per-arm certification of the written value *)
  let rec certify env (ve : P.expression) (site : P.expression) (we : P.expression)
      (wav : av) (wsrc : string option) =
    match ve.pexp_desc with
    | P.Pexp_ifthenelse (c, t, eo) ->
        ignore (self env c);
        let saved = ctx.refines in
        ctx.refines <- refine_entries ctx (fun x -> self env x) c true @ saved;
        certify env t site we wav wsrc;
        ctx.refines <- saved;
        (match eo with
        | Some el ->
            ctx.refines <- refine_entries ctx (fun x -> self env x) c false @ saved;
            certify env el site we wav wsrc;
            ctx.refines <- saved
        | None -> ())
    | P.Pexp_match (scr, cases) ->
        ignore (self env scr);
        List.iter
          (fun (c : P.case) ->
            if not (diverges c.pc_rhs) then begin
              let env =
                List.fold_left (fun env v -> StrMap.add v top env) env (pattern_vars c.pc_lhs)
              in
              Option.iter (fun g -> ignore (self env g)) c.pc_guard;
              certify env c.pc_rhs site we wav wsrc
            end
            else ignore (self env c.pc_rhs))
          cases
    | P.Pexp_constraint (inner, _) -> certify env inner site we wav wsrc
    | _ ->
        let av = self env ve in
        let limit = pow2m1 (max 0 wav.iv.lo) in
        let fits_interval = av.iv.hi <= limit in
        let fits_mask =
          match (av.mask_of, wsrc) with Some a, Some b -> a = b | _ -> false
        in
        let fits_bound =
          match (av.bound, wav.wof) with
          | Some (m, k), Some (m', j) -> m = m' && k <= j
          | _ -> false
        in
        if ctx.report && not (av.iv.lo >= 0 && (fits_interval || fits_mask || fits_bound))
        then
          report "width-trunc" site.P.pexp_loc
            (Printf.sprintf
               "value `%s` may not fit `%s` bits: value in %s, width in %s, field holds at \
                most %s%s%s"
               (normtext ve) (normtext we) (iv_str av.iv) (iv_str wav.iv)
               (if limit >= max_i then "+inf" else string_of_int limit)
               (chain av) (chain wav))
  in
  match e.pexp_desc with
  | P.Pexp_constant (P.Pconst_integer (s, None)) -> (
      match int_of_string_opt s with Some n -> finish (const n) | None -> finish top)
  | P.Pexp_constant _ -> finish top
  | P.Pexp_ident { txt = Longident.Lident x; _ } -> (
      match StrMap.find_opt x env with
      | Some av -> finish { av with src = Some x }
      | None -> (
          match Cg.resolve_ref ctx.cg ~file:ctx.file [ x ] with
          | Some sym -> (
              match Cg.find ctx.cg sym with
              | Some b -> (
                  match int_const b.Cg.expr with
                  | Some n ->
                      finish
                        (with_prov
                           { (const n) with src = Some x }
                           (Printf.sprintf "`%s` = %d (module constant)" x n))
                  | None -> finish { top with src = Some x })
              | None -> finish { top with src = Some x })
          | None ->
              finish
                (with_prov { top with src = Some x }
                   (Printf.sprintf "`%s` unconstrained (parameter or external)" x))))
  | P.Pexp_ident _ -> finish top
  | P.Pexp_constraint (inner, _) -> self env inner
  | P.Pexp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc (vb : P.value_binding) ->
            match vb.pvb_pat.ppat_desc with
            | P.Ppat_var { txt = x; _ } ->
                register_local summ ctx env x vb.P.pvb_expr body;
                let av = self env vb.P.pvb_expr in
                Hashtbl.replace ctx.defs x (normtext vb.P.pvb_expr);
                StrMap.add x av acc
            | _ ->
                ignore (self env vb.P.pvb_expr);
                List.fold_left (fun acc v -> StrMap.add v top acc) acc
                  (pattern_vars vb.P.pvb_pat))
          env vbs
      in
      self env' body
  | P.Pexp_sequence (a, b) -> (
      match a.pexp_desc with
      | P.Pexp_ifthenelse (c, t, None) when diverges t ->
          ignore (self env a);
          let entries = refine_entries ctx (fun x -> self env x) c false in
          (* persist lower bounds: they hold for the rest of the binding *)
          List.iter
            (fun (key, r) ->
              if r.lo > -max_i then begin
                let f = fact_for ctx key in
                match f.f_ge with
                | Some g when g >= r.lo -> ()
                | _ -> f.f_ge <- Some r.lo
              end)
            entries;
          let saved = ctx.refines in
          ctx.refines <- entries @ saved;
          let av = self env b in
          ctx.refines <- saved;
          av
      | _ ->
          ignore (self env a);
          self env b)
  | P.Pexp_ifthenelse (c, t, eo) -> (
      (* max-fold: [if e > !m then m := e] registers e <= !m *)
      (match (c.pexp_desc, t.pexp_desc, eo) with
      | ( P.Pexp_apply
            ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ">"; _ }; _ },
              [ (Asttypes.Nolabel, fe); (Asttypes.Nolabel, de) ] ),
          P.Pexp_apply
            ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
              [
                (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ });
                (Asttypes.Nolabel, fe');
              ] ),
          None )
        when deref_form de = Some (m, 0)
             && normtext fe = normtext fe'
             && (match Hashtbl.find_opt ctx.refs m with
                | Some r -> r.r_fold
                | None -> false) ->
          List.iter
            (fun key ->
              let f = fact_for ctx key in
              f.f_le <- Some (m, 0))
            (keys_of ctx fe)
      | _ -> ());
      ignore (self env c);
      let saved = ctx.refines in
      let then_av =
        if diverges t then None
        else begin
          ctx.refines <- refine_entries ctx (fun x -> self env x) c true @ saved;
          let av = self env t in
          ctx.refines <- saved;
          Some av
        end
      in
      if diverges t then ignore (self env t);
      let else_av =
        match eo with
        | None -> Some (const 0)  (* unit statement *)
        | Some el ->
            if diverges el then begin
              ignore (self env el);
              None
            end
            else begin
              ctx.refines <- refine_entries ctx (fun x -> self env x) c false @ saved;
              let av = self env el in
              ctx.refines <- saved;
              Some av
            end
      in
      match (then_av, else_av) with
      | Some a, Some b -> finish (join ctx a b)
      | Some a, None | None, Some a -> finish a
      | None, None -> top)
  | P.Pexp_match (scr, cases) | P.Pexp_try (scr, cases) ->
      let _ = self env scr in
      let arms =
        List.filter_map
          (fun (c : P.case) ->
            let env =
              List.fold_left (fun env v -> StrMap.add v top env) env (pattern_vars c.pc_lhs)
            in
            Option.iter (fun g -> ignore (self env g)) c.pc_guard;
            if diverges c.pc_rhs then begin
              ignore (self env c.pc_rhs);
              None
            end
            else Some (self env c.pc_rhs))
          cases
      in
      finish
        (match arms with [] -> top | a :: rest -> List.fold_left (join ctx) a rest)
  | P.Pexp_for ({ ppat_desc = pdesc; _ }, lo_e, hi_e, _, body) ->
      let lo_av = self env lo_e and hi_av = self env hi_e in
      let env =
        match pdesc with
        | P.Ppat_var { txt = v; _ } ->
            StrMap.add v { top with iv = { lo = lo_av.iv.lo; hi = hi_av.iv.hi } } env
        | _ -> env
      in
      ignore (self env body);
      const 0
  | P.Pexp_while (c, body) ->
      ignore (self env c);
      ignore (self env body);
      const 0
  | P.Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (self env d)) default;
      let env =
        List.fold_left (fun env v -> StrMap.add v top env) env (pattern_vars pat)
      in
      ignore (self env body);
      top
  | P.Pexp_function cases ->
      List.iter
        (fun (c : P.case) ->
          let env =
            List.fold_left (fun env v -> StrMap.add v top env) env (pattern_vars c.pc_lhs)
          in
          Option.iter (fun g -> ignore (self env g)) c.pc_guard;
          ignore (self env c.pc_rhs))
        cases;
      top
  | P.Pexp_tuple es ->
      List.iter (fun x -> ignore (self env x)) es;
      top
  | P.Pexp_construct (_, arg) | P.Pexp_variant (_, arg) ->
      Option.iter (fun x -> ignore (self env x)) arg;
      top
  | P.Pexp_record (fields, base) ->
      List.iter (fun (_, x) -> ignore (self env x)) fields;
      Option.iter (fun x -> ignore (self env x)) base;
      top
  | P.Pexp_field (x, _) ->
      ignore (self env x);
      finish top
  | P.Pexp_setfield (x, _, v) ->
      ignore (self env x);
      ignore (self env v);
      const 0
  | P.Pexp_array es ->
      List.iter (fun x -> ignore (self env x)) es;
      top
  | P.Pexp_assert x | P.Pexp_lazy x ->
      ignore (self env x);
      top
  | P.Pexp_open (_, body) | P.Pexp_letexception (_, body) -> self env body
  | P.Pexp_letmodule (_, _, body) -> self env body
  | P.Pexp_apply (head, args) -> (
      (* mask pattern: [(1 lsl w) - 1] *)
      let mask_pattern () =
        match e.pexp_desc with
        | P.Pexp_apply
            ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident "-"; _ }; _ },
              [
                ( Asttypes.Nolabel,
                  {
                    pexp_desc =
                      P.Pexp_apply
                        ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident "lsl"; _ }; _ },
                          [
                            (Asttypes.Nolabel, one);
                            ( Asttypes.Nolabel,
                              { pexp_desc = P.Pexp_ident { txt = Longident.Lident w; _ }; _ } );
                          ] );
                    _;
                  } );
                (Asttypes.Nolabel, one');
              ] )
          when int_const one = Some 1 && int_const one' = Some 1 ->
            Some w
        | _ -> None
      in
      match head.pexp_desc with
      | P.Pexp_ident { txt; _ } -> (
          let path = lid_path txt in
          match (path, args) with
          | [ "!" ], [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ }) ]
            -> (
              match Hashtbl.find_opt ctx.refs m with
              | Some r when not r.r_assigned -> finish r.r_init
              | Some r when r.r_fold ->
                  finish
                    (with_prov
                       { top with iv = { lo = r.r_min; hi = max_i } }
                       (Printf.sprintf "!%s is a max-fold ref (init >= %d)" m r.r_min))
              | _ -> finish top)
          | [ ":=" ], [ (Asttypes.Nolabel, _); (Asttypes.Nolabel, rhs) ] ->
              ignore (self env rhs);
              const 0
          | [ ("incr" | "decr") ], [ (Asttypes.Nolabel, _) ] -> const 0
          | ( [ "Array"; ("get" | "unsafe_get") ],
              [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident a; _ }; _ }); (Asttypes.Nolabel, idx) ] )
            -> (
              ignore (self env idx);
              match Hashtbl.find_opt ctx.arrays a with
              | Some elem ->
                  finish
                    (with_prov !elem (Printf.sprintf "element of local array `%s`" a))
              | None -> finish top)
          | ( [ "Array"; ("set" | "unsafe_set") ],
              [
                (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident a; _ }; _ });
                (Asttypes.Nolabel, idx);
                (Asttypes.Nolabel, v);
              ] ) ->
              ignore (self env idx);
              let va = self env v in
              (match Hashtbl.find_opt ctx.arrays a with
              | Some elem -> elem := join ctx !elem va
              | None -> ());
              const 0
          | _ -> (
              match mask_pattern () with
              | Some w ->
                  let wav = match StrMap.find_opt w env with Some a -> a | None -> top in
                  let hi = pow2m1 (min 62 (max 0 wav.iv.hi)) in
                  finish
                    (with_prov
                       { top with iv = { lo = 0; hi }; mask_of = Some w }
                       (Printf.sprintf "(1 lsl %s) - 1 is the %s-bit sentinel mask" w w))
              | None -> exec_apply summ ctx env e head path args check_width width_info certify))
      | _ ->
          ignore (self env head);
          List.iter (fun (_, a) -> ignore (self env a)) args;
          top)
  | _ -> top

(* local [let] registration: refs and arrays with assignment scanning *)
and register_local summ ctx env x (rhs : P.expression) (cont : P.expression) =
  ignore summ;
  ignore env;
  match rhs.pexp_desc with
  | P.Pexp_apply
      ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident "ref"; _ }; _ }, [ (Asttypes.Nolabel, init) ])
    ->
      let init_av =
        match int_const init with Some n -> const n | None -> top
      in
      (* scan the continuation: every assignment must be the max-fold
         form for the symbolic bound to stay sound *)
      let assigns = ref [] and folds = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.P.pexp_desc with
              | P.Pexp_ifthenelse
                  ( {
                      pexp_desc =
                        P.Pexp_apply
                          ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ">"; _ }; _ },
                            [ (Asttypes.Nolabel, fe); (Asttypes.Nolabel, de) ] );
                      _;
                    },
                    (* the comparison must be against this very ref:
                       [if e > !x then x := e] *)
                    ({
                       pexp_desc =
                         P.Pexp_apply
                           ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                             [
                               ( Asttypes.Nolabel,
                                 { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ } );
                               (Asttypes.Nolabel, fe');
                             ] );
                       _;
                     } as assign),
                    None )
                when m = x
                     && normtext fe = normtext fe'
                     && deref_form de = Some (x, 0) ->
                  folds := assign :: !folds
              | P.Pexp_apply
                  ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                    [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ }); _ ] )
                when m = x ->
                  assigns := e :: !assigns
              | P.Pexp_apply
                  ( { pexp_desc = P.Pexp_ident { txt = Longident.Lident ("incr" | "decr"); _ }; _ },
                    [ (Asttypes.Nolabel, { pexp_desc = P.Pexp_ident { txt = Longident.Lident m; _ }; _ }) ] )
                when m = x ->
                  assigns := e :: !assigns
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.expr it cont;
      let fold_exprs = !folds in
      let all_fold =
        List.for_all
          (fun (a : P.expression) ->
            match a.P.pexp_desc with
            | P.Pexp_apply
                ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident ":="; _ }; _ }, _) ->
                List.exists (fun f -> f == a) fold_exprs
            | _ -> false)
          !assigns
      in
      Hashtbl.replace ctx.refs x
        {
          r_init = init_av;
          r_min = init_av.iv.lo;
          r_fold = all_fold;
          r_assigned = !assigns <> [] || fold_exprs <> [];
        }
  | P.Pexp_apply
      ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, _) :: rest)
    when lid_path txt = [ "Array"; "make" ] -> (
      match rest with
      | [ (Asttypes.Nolabel, init) ] ->
          let init_av = match int_const init with Some n -> const n | None -> top in
          Hashtbl.replace ctx.arrays x (ref init_av)
      | _ -> ())
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _)
    when lid_path txt = [ "Array"; "init" ] ->
      Hashtbl.replace ctx.arrays x (ref top)
  | _ -> ()

(* application handling: put/get sites, bits_needed, in-repo summaries *)
and exec_apply summ ctx env (e : P.expression) _head path args check_width width_info certify
    : av =
  let self env x = exec summ ctx env x in
  let eval_args () = List.map (fun (l, a) -> (l, a, self env a)) args in
  let arith2 f =
    match args with
    | [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ->
        let av = self env a in
        let bv = self env b in
        Some (f a b av bv)
    | _ -> None
  in
  let finish av = apply_refines ctx e (apply_facts ctx e av) in
  match call_kind ctx path with
  | KPut -> (
      let evald = eval_args () in
      let bits = List.find_opt (fun (l, _, _) -> l = Asttypes.Labelled "bits") evald in
      match bits with
      | None -> top  (* partial application without ~bits: not a site *)
      | Some (_, we, _) ->
          if ctx.report then ctx.puts <- ctx.puts + 1;
          let wav, wsrc = width_info we in
          check_width e we wav;
          (* the value is the last unlabelled argument *)
          let value =
            List.fold_left
              (fun acc (l, a, _) -> if l = Asttypes.Nolabel then Some a else acc)
              None evald
          in
          (match value with
          | Some ve -> certify env ve e we wav wsrc
          | None -> ());
          const 0)
  | KGet -> (
      let evald = eval_args () in
      let bits = List.find_opt (fun (l, _, _) -> l = Asttypes.Labelled "bits") evald in
      match bits with
      | None -> top
      | Some (_, we, _) ->
          if ctx.report then ctx.gets <- ctx.gets + 1;
          let wav, _ = width_info we in
          check_width e we wav;
          let hi =
            if wav.iv.lo = wav.iv.hi && wav.iv.lo >= 0 && wav.iv.lo <= 30 then
              pow2m1 wav.iv.lo
            else pow2m1 30
          in
          finish
            (with_prov
               { top with iv = { lo = 0; hi } }
               (Printf.sprintf "Bitio.get ~bits:%s reads [0, %d]" (normtext we) hi)))
  | KPutVarint | KGetVarint ->
      List.iter (fun (_, a) -> ignore (self env a)) args;
      if call_kind ctx path = KGetVarint then finish { top with iv = { lo = 0; hi = max_i } }
      else const 0
  | KBitsNeeded -> (
      match args with
      | [ (Asttypes.Nolabel, a) ] ->
          ignore (self env a);
          let wof = deref_form a in
          finish
            (with_prov
               { top with iv = { lo = 1; hi = 62 }; wof }
               (match wof with
               | Some (m, c) ->
                   Printf.sprintf "bits_needed(!%s%s): 2^w - 1 covers !%s%s" m
                     (if c = 0 then "" else Printf.sprintf " %+d" c)
                     m
                     (if c = 0 then "" else Printf.sprintf " %+d" c)
               | None -> "bits_needed result in [1, 62]"))
      | _ ->
          List.iter (fun (_, a) -> ignore (self env a)) args;
          top)
  | KRepo sym -> (
      List.iter (fun (_, a) -> ignore (self env a)) args;
      (* width-helper: wof of the last argument *)
      let wof =
        match Hashtbl.find_opt summ.wof_memo sym with
        | Some cached -> (
            match cached with
            | None -> None
            | Some c -> (
                match List.rev args with
                | (Asttypes.Nolabel, last) :: _ -> (
                    match deref_form last with
                    | Some (m, d) -> Some (m, c + d)
                    | None -> None)
                | _ -> None))
        | None -> (
            let off =
              match Cg.find ctx.cg sym with Some b -> wof_offset_of b | None -> None
            in
            Hashtbl.replace summ.wof_memo sym off;
            match off with
            | None -> None
            | Some c -> (
                match List.rev args with
                | (Asttypes.Nolabel, last) :: _ -> (
                    match deref_form last with
                    | Some (m, d) -> Some (m, c + d)
                    | None -> None)
                | _ -> None))
      in
      let s = summary_of summ ctx sym in
      match wof with
      | Some _ ->
          finish
            (with_prov { s with wof }
               (Printf.sprintf "`%s` is a width helper" (Cg.display sym)))
      | None -> finish s)
  | KExt norm -> (
      let key = String.concat "." norm in
      match key with
      | "+" | "-" -> (
          match
            arith2 (fun _ b av bv ->
                let op_iv =
                  if key = "+" then
                    { lo = sat (av.iv.lo + bv.iv.lo); hi = sat (av.iv.hi + bv.iv.hi) }
                  else { lo = sat (av.iv.lo - bv.iv.hi); hi = sat (av.iv.hi - bv.iv.lo) }
                in
                let bound =
                  match (av.bound, int_const b) with
                  | Some (m, k), Some c ->
                      Some (m, if key = "+" then k + c else k - c)
                  | _ -> None
                in
                { top with iv = op_iv; bound; prov = av.prov })
          with
          | Some r -> finish r
          | None ->
              List.iter (fun (_, a) -> ignore (self env a)) args;
              finish top)
      | "*" -> (
          match arith2 (fun _ _ av bv -> { top with iv = iv_mul av.iv bv.iv }) with
          | Some r -> finish r
          | None -> finish top)
      | "land" -> (
          match
            arith2 (fun a b av bv ->
                let from_mask mav other =
                  (* x land ((1 lsl w) - 1) keeps the mask certificate *)
                  match mav.mask_of with
                  | Some w when other.iv.lo >= 0 || true ->
                      Some { top with iv = { lo = 0; hi = mav.iv.hi }; mask_of = Some w }
                  | _ -> None
                in
                let from_const ce other =
                  match int_const ce with
                  | Some c when c >= 0 -> Some { top with iv = { lo = 0; hi = c }; prov = other.prov }
                  | _ -> None
                in
                match from_mask bv av with
                | Some r -> r
                | None -> (
                    match from_mask av bv with
                    | Some r -> r
                    | None -> (
                        match from_const b av with
                        | Some r -> r
                        | None -> (
                            match from_const a bv with
                            | Some r -> r
                            | None ->
                                if av.iv.lo >= 0 || bv.iv.lo >= 0 then
                                  { top with iv = { lo = 0; hi = max_i } }
                                else top))))
          with
          | Some r -> finish r
          | None -> finish top)
      | "lor" -> (
          match
            arith2 (fun _ _ av bv ->
                if av.iv.lo >= 0 && bv.iv.lo >= 0 then
                  {
                    top with
                    iv =
                      {
                        lo = max av.iv.lo bv.iv.lo;
                        hi = sat (mask_up av.iv.hi lor mask_up bv.iv.hi);
                      };
                  }
                else top)
          with
          | Some r -> finish r
          | None -> finish top)
      | "lsr" -> (
          match
            arith2 (fun _ b av _ ->
                match int_const b with
                | Some c when c >= 0 && c < 62 ->
                    if av.iv.lo >= 0 then
                      { top with iv = { lo = av.iv.lo lsr c; hi = av.iv.hi lsr c } }
                    else { top with iv = { lo = 0; hi = max_i } }
                | _ -> { top with iv = { lo = 0; hi = max_i } })
          with
          | Some r -> finish r
          | None -> finish top)
      | "lsl" -> (
          match
            arith2 (fun _ b av _ ->
                match int_const b with
                | Some c when c >= 0 && c < 62 && av.iv.lo >= 0 ->
                    { top with iv = { lo = sat (smul av.iv.lo (1 lsl c)); hi = sat (smul av.iv.hi (1 lsl c)) } }
                | _ -> top)
          with
          | Some r -> finish r
          | None -> finish top)
      | "mod" -> (
          match
            arith2 (fun _ b av _ ->
                match int_const b with
                | Some c when c > 0 && av.iv.lo >= 0 -> { top with iv = { lo = 0; hi = c - 1 } }
                | _ -> top)
          with
          | Some r -> finish r
          | None -> finish top)
      | "min" -> (
          match
            arith2 (fun _ _ av bv ->
                { top with iv = { lo = min av.iv.lo bv.iv.lo; hi = min av.iv.hi bv.iv.hi } })
          with
          | Some r -> finish r
          | None -> finish top)
      | "max" -> (
          match
            arith2 (fun _ _ av bv ->
                { top with iv = { lo = max av.iv.lo bv.iv.lo; hi = max av.iv.hi bv.iv.hi } })
          with
          | Some r -> finish r
          | None -> finish top)
      | "abs" ->
          List.iter (fun (_, a) -> ignore (self env a)) args;
          finish { top with iv = { lo = 0; hi = max_i } }
      | _ ->
          List.iter (fun (_, a) -> ignore (self env a)) args;
          finish top)

(* interval summary of an in-repo callee: body with parameters top *)
and summary_of summ ctx sym : av =
  match Hashtbl.find_opt summ.memo sym with
  | Some av -> av
  | None ->
      if Hashtbl.mem summ.in_progress sym then top
      else begin
        Hashtbl.add summ.in_progress sym ();
        let av =
          match Cg.find ctx.cg sym with
          | None -> top
          | Some b ->
              let cctx =
                {
                  cg = ctx.cg;
                  file = b.Cg.file;
                  report = false;
                  findings = [];
                  facts = Hashtbl.create 16;
                  refs = Hashtbl.create 8;
                  arrays = Hashtbl.create 8;
                  defs = Hashtbl.create 16;
                  refines = [];
                  puts = 0;
                  gets = 0;
                }
              in
              let params, body = strip_fun_params [] b.Cg.expr in
              let env =
                List.fold_left (fun env v -> StrMap.add v top env) StrMap.empty params
              in
              (* two passes: max-fold facts register on the first *)
              ignore (exec summ cctx env body);
              Hashtbl.reset cctx.arrays;
              let r = exec summ cctx env body in
              {
                top with
                iv = r.iv;
                prov =
                  [ Printf.sprintf "`%s` returns %s" (Cg.display sym) (iv_str r.iv) ];
              }
        in
        Hashtbl.remove summ.in_progress sym;
        Hashtbl.replace summ.memo sym av;
        av
      end

(* ------------------------------------------------------------------ *)
(* Field traces: reader/writer symmetry *)

type wdesc = Wconst of int | Wslot of int | Wother of string

type tnode = {
  t_w : wdesc option;  (* None = varint *)
  t_def : int option;  (* the slot this field's value defines *)
}

type tr = F of tnode | Br of tr list list | Loop of tr list | Rec

type tstate = {
  ts_ctx : ctx;
  slots : (string, int) Hashtbl.t;
  mutable next_slot : int;
  t_memo : (Cg.sym, tr list * int) Hashtbl.t;  (* raw trace, slot count *)
  mutable t_stack : Cg.sym list;
}

let rec shift_slots base nodes =
  List.map
    (function
      | F { t_w; t_def } ->
          F
            {
              t_w =
                (match t_w with
                | Some (Wslot i) -> Some (Wslot (i + base))
                | w -> w);
              t_def = Option.map (fun i -> i + base) t_def;
            }
      | Br arms -> Br (List.map (shift_slots base) arms)
      | Loop b -> Loop (shift_slots base b)
      | Rec -> Rec)
    nodes

let rec extract (ts : tstate) (cur : Cg.sym) (e : P.expression) : tr list =
  let ctx = ts.ts_ctx in
  let slot_of x =
    match Hashtbl.find_opt ts.slots x with
    | Some i -> i
    | None ->
        let i = ts.next_slot in
        ts.next_slot <- i + 1;
        Hashtbl.add ts.slots x i;
        i
  in
  let wdesc_of (we : P.expression) =
    match int_const we with
    | Some c -> Wconst c
    | None -> (
        match we.pexp_desc with
        | P.Pexp_ident { txt = Longident.Lident x; _ } -> (
            match Hashtbl.find_opt ts.slots x with
            | Some i -> Wslot i
            | None -> (
                (* module-level width constant *)
                match Cg.resolve_ref ctx.cg ~file:ctx.file [ x ] with
                | Some sym -> (
                    match Cg.find ctx.cg sym with
                    | Some b -> (
                        match int_const b.Cg.expr with
                        | Some c -> Wconst c
                        | None -> Wother (normtext we))
                    | None -> Wother (normtext we))
                | None -> Wother (normtext we)))
        | _ -> Wother (normtext we))
  in
  match e.pexp_desc with
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, args) -> (
      let path = lid_path txt in
      let arg_nodes () =
        List.concat_map (fun (_, a) -> extract ts cur a) args
      in
      match call_kind ctx path with
      | KPut ->
          let pre = arg_nodes () in
          let bits = List.assoc_opt (Asttypes.Labelled "bits") args in
          let value =
            List.fold_left
              (fun acc (l, a) -> if l = Asttypes.Nolabel then Some a else acc)
              None args
          in
          let def =
            match value with
            | Some { pexp_desc = P.Pexp_ident { txt = Longident.Lident x; _ }; _ } ->
                Some (slot_of x)
            | _ -> None
          in
          (match bits with
          | Some we -> pre @ [ F { t_w = Some (wdesc_of we); t_def = def } ]
          | None -> pre)
      | KGet -> (
          let pre = arg_nodes () in
          match List.assoc_opt (Asttypes.Labelled "bits") args with
          | Some we -> pre @ [ F { t_w = Some (wdesc_of we); t_def = None } ]
          | None -> pre)
      | KPutVarint ->
          let pre = arg_nodes () in
          let value =
            List.fold_left
              (fun acc (l, a) -> if l = Asttypes.Nolabel then Some a else acc)
              None args
          in
          let def =
            match value with
            | Some { pexp_desc = P.Pexp_ident { txt = Longident.Lident x; _ }; _ } ->
                Some (slot_of x)
            | _ -> None
          in
          pre @ [ F { t_w = None; t_def = def } ]
      | KGetVarint -> arg_nodes () @ [ F { t_w = None; t_def = None } ]
      | KBitsNeeded | KExt _ -> arg_nodes ()
      | KRepo sym ->
          let pre = arg_nodes () in
          if List.exists (fun s -> Cg.sym_compare s sym = 0) (cur :: ts.t_stack) then
            pre @ [ Rec ]
          else begin
            let callee_trace, callee_slots =
              match Hashtbl.find_opt ts.t_memo sym with
              | Some t -> t
              | None -> raw_trace_of ts sym
            in
            if callee_trace = [] then pre
            else begin
              let base = ts.next_slot in
              ts.next_slot <- base + callee_slots;
              pre @ shift_slots base callee_trace
            end
          end)
  | P.Pexp_apply (head, args) ->
      (* [@] evaluates right-to-left; slot registration must see program order *)
      let h = extract ts cur head in
      h @ List.concat_map (fun (_, a) -> extract ts cur a) args
  | P.Pexp_let (_, vbs, body) ->
      let nodes =
        List.concat_map
          (fun (vb : P.value_binding) ->
            let rhs_nodes = extract ts cur vb.P.pvb_expr in
            match (vb.pvb_pat.ppat_desc, List.rev rhs_nodes) with
            | P.Ppat_var { txt = x; _ }, F last :: rev_rest
              when last.t_def = None
                   && (match vb.P.pvb_expr.pexp_desc with
                      | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _) -> (
                          match call_kind ctx (lid_path txt) with
                          | KGet | KGetVarint -> true
                          | _ -> false)
                      | _ -> false) ->
                List.rev (F { last with t_def = Some (slot_of x) } :: rev_rest)
            | _ -> rhs_nodes)
          vbs
      in
      nodes @ extract ts cur body
  | P.Pexp_sequence (a, b) ->
      let na = extract ts cur a in
      na @ extract ts cur b
  | P.Pexp_ifthenelse (c, t, eo) ->
      let pre = extract ts cur c in
      let then_arms = if diverges t then [] else [ extract ts cur t ] in
      let else_arms =
        match eo with
        | None -> [ [] ]
        | Some el -> if diverges el then [] else [ extract ts cur el ]
      in
      pre @ [ Br (then_arms @ else_arms) ]
  | P.Pexp_match (scr, cases) | P.Pexp_try (scr, cases) ->
      let pre = extract ts cur scr in
      let arms =
        List.filter_map
          (fun (c : P.case) ->
            if diverges c.P.pc_rhs then None else Some (extract ts cur c.P.pc_rhs))
          cases
      in
      pre @ [ Br arms ]
  | P.Pexp_for (_, lo, hi, _, body) ->
      let nlo = extract ts cur lo in
      let nhi = extract ts cur hi in
      nlo @ nhi @ [ Loop (extract ts cur body) ]
  | P.Pexp_while (c, body) ->
      let nc = extract ts cur c in
      nc @ [ Loop (extract ts cur body) ]
  | P.Pexp_fun (_, _, _, body) | P.Pexp_newtype (_, body) -> [ Loop (extract ts cur body) ]
  | P.Pexp_function cases ->
      [ Br (List.map (fun (c : P.case) -> extract ts cur c.P.pc_rhs) cases) ]
  | P.Pexp_constraint (x, _)
  | P.Pexp_open (_, x)
  | P.Pexp_letmodule (_, _, x)
  | P.Pexp_letexception (_, x) ->
      extract ts cur x
  | P.Pexp_tuple es | P.Pexp_array es -> List.concat_map (extract ts cur) es
  | P.Pexp_construct (_, Some x) | P.Pexp_variant (_, Some x) -> extract ts cur x
  | P.Pexp_record (fields, base) ->
      List.concat_map (fun (_, x) -> extract ts cur x) fields
      @ (match base with Some b -> extract ts cur b | None -> [])
  | P.Pexp_field (x, _) -> extract ts cur x
  | P.Pexp_setfield (x, _, v) ->
      let nx = extract ts cur x in
      nx @ extract ts cur v
  | P.Pexp_assert x | P.Pexp_lazy x -> extract ts cur x
  | _ -> []

and raw_trace_of (ts : tstate) sym : tr list * int =
  match Hashtbl.find_opt ts.t_memo sym with
  | Some t -> t
  | None -> (
      match Cg.find ts.ts_ctx.cg sym with
      | None ->
          Hashtbl.replace ts.t_memo sym ([], 0);
          ([], 0)
      | Some b ->
          (* fresh slot namespace per binding *)
          let saved_slots = Hashtbl.copy ts.slots in
          let saved_next = ts.next_slot in
          let saved_file = ts.ts_ctx.file in
          Hashtbl.reset ts.slots;
          ts.next_slot <- 0;
          ts.ts_ctx.file <- b.Cg.file;
          ts.t_stack <- sym :: ts.t_stack;
          let _, body = strip_fun_params [] b.Cg.expr in
          let nodes = extract ts sym body in
          let nslots = ts.next_slot in
          ts.t_stack <- List.tl ts.t_stack;
          Hashtbl.reset ts.slots;
          Hashtbl.iter (fun k v -> Hashtbl.replace ts.slots k v) saved_slots;
          ts.next_slot <- saved_next;
          ts.ts_ctx.file <- saved_file;
          Hashtbl.replace ts.t_memo sym (nodes, nslots);
          (nodes, nslots))

(* normalization: drop unused slot defs, splice trivial branches, hoist
   common prefixes/suffixes out of branches *)
let used_slots nodes =
  let used = Hashtbl.create 8 in
  let rec go = function
    | F { t_w = Some (Wslot i); _ } -> Hashtbl.replace used i ()
    | F _ | Rec -> ()
    | Br arms -> List.iter (List.iter go) arms
    | Loop b -> List.iter go b
  in
  List.iter go nodes;
  used

let drop_unused_defs nodes =
  let used = used_slots nodes in
  let rec go = function
    | F ({ t_def = Some i; _ } as n) when not (Hashtbl.mem used i) -> F { n with t_def = None }
    | F n -> F n
    | Br arms -> Br (List.map (List.map go) arms)
    | Loop b -> Loop (List.map go b)
    | Rec -> Rec
  in
  List.map go nodes

let rec norm nodes = List.concat_map norm1 nodes

and norm1 = function
  | F n -> [ F n ]
  | Rec -> [ Rec ]
  | Loop b -> ( match norm b with [] -> [] | b -> [ Loop b ])
  | Br arms -> (
      let arms = List.map norm arms in
      (* dedupe identical arms *)
      let arms =
        List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) [] arms
      in
      match arms with
      | [] -> []
      | [ a ] -> a
      | arms when List.for_all (( = ) []) arms -> []
      | arms ->
          (* hoist shared prefix *)
          let rec hoist_prefix arms acc =
            match arms with
            | first :: _ when List.for_all (fun a -> a <> []) arms -> (
                match first with
                | h :: _ when List.for_all (fun a -> List.hd a = h) arms ->
                    hoist_prefix (List.map List.tl arms) (acc @ [ h ])
                | _ -> (acc, arms))
            | _ -> (acc, arms)
          in
          let prefix, arms = hoist_prefix arms [] in
          let rev_arms = List.map List.rev arms in
          let rsuffix, rev_arms = hoist_prefix rev_arms [] in
          let arms = List.map List.rev rev_arms in
          let suffix = List.rev rsuffix in
          let mid =
            let arms =
              List.fold_left
                (fun acc a -> if List.mem a acc then acc else acc @ [ a ])
                [] arms
            in
            match arms with
            | [] -> []
            | [ a ] -> a
            | arms when List.for_all (( = ) []) arms -> []
            | arms -> [ Br arms ]
          in
          prefix @ mid @ suffix)

(* canonical rendering: slots renumbered by first occurrence, branch
   arms sorted so arm order is immaterial *)
let canon nodes =
  let rec render map next nodes =
    let id i =
      match Hashtbl.find_opt map i with
      | Some c -> c
      | None ->
          let c = !next in
          incr next;
          Hashtbl.add map i c;
          c
    in
    String.concat ";"
      (List.map
         (function
           | F { t_w; t_def } ->
               let w =
                 match t_w with
                 | None -> "v"
                 | Some (Wconst c) -> Printf.sprintf "f%d" c
                 | Some (Wslot i) -> Printf.sprintf "f[s%d]" (id i)
                 | Some (Wother t) -> Printf.sprintf "f[%s]" t
               in
               let d = match t_def with Some i -> Printf.sprintf ">s%d" (id i) | None -> "" in
               w ^ d
           | Rec -> "rec"
           | Loop b -> Printf.sprintf "(%s)*" (render map next b)
           | Br arms ->
               let keyed =
                 List.map
                   (fun a ->
                     let m = Hashtbl.copy map and n = ref !next in
                     (render m n a, a))
                   arms
               in
               let sorted =
                 List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) keyed
               in
               Printf.sprintf "{%s}"
                 (String.concat " | " (List.map (fun (_, a) -> render map next a) sorted)))
         nodes)
  in
  render (Hashtbl.create 8) (ref 0) nodes

(* writer-name -> reader-name conventions, tried in order *)
let reader_name_of writer =
  let swap ~pre ~by =
    let lp = String.length pre in
    if String.length writer >= lp && String.sub writer 0 lp = pre then
      Some (by ^ String.sub writer lp (String.length writer - lp))
    else None
  in
  if writer = "write" then Some "read"
  else if writer = "encode" then Some "decode"
  else if writer = "put" then Some "get"
  else if writer = "save" then Some "load"
  else
    match swap ~pre:"write_" ~by:"read_" with
    | Some r -> Some r
    | None -> (
        match swap ~pre:"encode_" ~by:"decode_" with
        | Some r -> Some r
        | None -> (
            match swap ~pre:"put_" ~by:"get_" with
            | Some r -> Some r
            | None -> (
                match swap ~pre:"save_" ~by:"load_" with
                | Some r -> Some r
                | None -> (
                    match swap ~pre:"writer" ~by:"reader" with
                    | Some r -> Some r
                    | None -> None))))

(* ------------------------------------------------------------------ *)
(* Whole-repo analysis *)

type pair = {
  p_writer : Cg.sym;
  p_reader : Cg.sym;
  p_wtrace : string;
  p_rtrace : string;
  p_symmetric : bool;
  p_line : int;
}

type report = {
  w_findings : Lint_core.finding list;
  w_pairs : pair list;
  w_puts : int;
  w_gets : int;
}

let analyze (cg : Cg.t) : report =
  let summ =
    { memo = Hashtbl.create 64; in_progress = Hashtbl.create 8; wof_memo = Hashtbl.create 16 }
  in
  let findings = ref [] in
  let puts = ref 0 and gets = ref 0 in
  (* interval pass over every binding *)
  List.iter
    (fun sym ->
      match Cg.find cg sym with
      | None -> ()
      | Some b ->
          let ctx =
            {
              cg;
              file = b.Cg.file;
              report = false;
              findings = [];
              facts = Hashtbl.create 16;
              refs = Hashtbl.create 8;
              arrays = Hashtbl.create 8;
              defs = Hashtbl.create 16;
              refines = [];
              puts = 0;
              gets = 0;
            }
          in
          let params, body = strip_fun_params [] b.Cg.expr in
          let env = List.fold_left (fun env v -> StrMap.add v top env) StrMap.empty params in
          (* pass 1 (silent) registers max-fold facts; pass 2 certifies *)
          ignore (exec summ ctx env body);
          Hashtbl.reset ctx.arrays;
          ctx.report <- true;
          ignore (exec summ ctx env body);
          findings := List.rev_append ctx.findings !findings;
          puts := !puts + ctx.puts;
          gets := !gets + ctx.gets)
    cg.Cg.order;
  (* trace-symmetry pass over writer/reader pairs *)
  let tctx =
    {
      cg;
      file = "";
      report = false;
      findings = [];
      facts = Hashtbl.create 1;
      refs = Hashtbl.create 1;
      arrays = Hashtbl.create 1;
      defs = Hashtbl.create 1;
      refines = [];
      puts = 0;
      gets = 0;
    }
  in
  let ts =
    {
      ts_ctx = tctx;
      slots = Hashtbl.create 8;
      next_slot = 0;
      t_memo = Hashtbl.create 32;
      t_stack = [];
    }
  in
  let pairs = ref [] in
  List.iter
    (fun sym ->
      let last =
        match List.rev (String.split_on_char '.' sym.Cg.s_path) with
        | l :: _ -> l
        | [] -> sym.Cg.s_path
      in
      match reader_name_of last with
      | None -> ()
      | Some rname -> (
          let rpath =
            match List.rev (String.split_on_char '.' sym.Cg.s_path) with
            | _ :: rest -> String.concat "." (List.rev (rname :: rest))
            | [] -> rname
          in
          let rsym = { Cg.s_file = sym.Cg.s_file; s_path = rpath } in
          match Cg.find cg rsym with
          | None -> ()
          | Some rb ->
              let wt = norm (drop_unused_defs (fst (raw_trace_of ts sym))) in
              let rt = norm (drop_unused_defs (fst (raw_trace_of ts rsym))) in
              (* a side with no trace is a primitive or plumbing, not a codec
                 half; §3i documents this as a coverage caveat *)
              if wt = [] || rt = [] then ()
              else begin
                let wc = canon wt and rc = canon rt in
                let sym_ok = wc = rc in
                let line =
                  match Cg.find cg sym with Some b -> b.Cg.line | None -> rb.Cg.line
                in
                pairs :=
                  {
                    p_writer = sym;
                    p_reader = rsym;
                    p_wtrace = wc;
                    p_rtrace = rc;
                    p_symmetric = sym_ok;
                    p_line = line;
                  }
                  :: !pairs;
                if not sym_ok then
                  findings :=
                    {
                      Lint_core.rule = "codec-mismatch";
                      file = sym.Cg.s_file;
                      line;
                      col = 0;
                      message =
                        Printf.sprintf
                          "writer `%s` and reader `%s` disagree on field order/widths: \
                           writer trace %s, reader trace %s"
                          (Cg.display sym) (Cg.display rsym) wc rc;
                    }
                    :: !findings
              end))
    cg.Cg.order;
  let sorted =
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
      !findings
  in
  { w_findings = sorted; w_pairs = List.rev !pairs; w_puts = !puts; w_gets = !gets }

let findings_of_report r = r.w_findings
let findings cg = findings_of_report (analyze cg)

let pairs r =
  List.map (fun p -> (Cg.display p.p_writer, Cg.display p.p_reader, p.p_symmetric)) r.w_pairs

let to_json (r : report) =
  let json_escape = Lint_core.json_escape in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"repro-lint/widths/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"put_sites\": %d, \"get_sites\": %d, \"pairs\": %d, \
        \"symmetric_pairs\": %d, \"findings\": %d},\n"
       r.w_puts r.w_gets (List.length r.w_pairs)
       (List.length (List.filter (fun p -> p.p_symmetric) r.w_pairs))
       (List.length r.w_findings));
  Buffer.add_string buf "  \"pairs\": [\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"writer\": \"%s\", \"reader\": \"%s\", \"symmetric\": %b, \
            \"writer_trace\": \"%s\", \"reader_trace\": \"%s\"}"
           (json_escape (Cg.display p.p_writer))
           (json_escape (Cg.display p.p_reader))
           p.p_symmetric
           (json_escape p.p_wtrace) (json_escape p.p_rtrace)))
    r.w_pairs;
  Buffer.add_string buf "\n  ],\n  \"findings\": [\n";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Format.asprintf "    %a" Lint_core.pp_finding_json f))
    r.w_findings;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
