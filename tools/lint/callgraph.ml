(* Whole-repository symbol/call-graph builder for the interprocedural
   model-compliance rules (DESIGN.md "Model compliance & static
   analysis", stage 1 of 2).

   Every [.ml] handed to [build] is parsed into a Parsetree and reduced
   to its module-level value bindings (including bindings nested in
   modules and functor bodies, qualified as ["Make.run"]). For each
   binding we record the raw identifier references in its body and
   whether it is itself a module-level mutable value (ref /
   Hashtbl.create / Array.make / Buffer.create / an array literal /
   ...).

   References are then resolved across files:

   - top-level [module X = P] aliases (and local [let module] aliases)
     are expanded, so [E.run] with [module E = Engine.Make (W)] becomes
     [Engine.Make.run];
   - a head module naming a sibling file in the same directory resolves
     into that file (dune libraries expose every sibling unqualified);
   - a head module naming a library wrapper module (from the directory's
     [dune] [(library (name repro_x))] stanza, falling back to the
     [lib/<d>] -> [Repro_<d>] convention) resolves across libraries;
   - within a file, a path that matches no binding exactly falls back to
     suffix matching, so [fresh_link] inside [Make]'s body finds
     ["Make.fresh_link"].

   The builder also collects the repository's *per-node callback* sites:
   any application carrying both a [~init] and a [~step] labelled
   argument (the [Engine.run] / [Transport.run] contract) contributes
   its [init]/[step]/[active]/[on_restart] arguments, and any structure
   passed to a [*.Make] functor contributes its [init]/[step]/[active]/
   [restore]/[resync]/[snapshot] value bindings (the [RECOVERABLE]
   contract). Callback reference sets are closed over the local
   [let]-bindings of the enclosing module-level binding, so a closure
   defined locally and passed by name is still seen.

   Everything here is syntactic: no typing, no functor instantiation
   tracking, and local shadowing of module-level names is ignored. The
   approximation is deliberately conservative in the reachability
   direction and its caveats are documented in DESIGN.md. *)

module P = Parsetree

type sym = { s_file : string; s_path : string }

let sym_compare a b =
  match String.compare a.s_file b.s_file with
  | 0 -> String.compare a.s_path b.s_path
  | c -> c

type binding = {
  file : string;
  line : int;
  is_mutable_value : bool;
  is_charge_site : bool;  (* carries [@@charge_site]: audited accounting entry point *)
  calls : sym list;  (* resolved in-repo references, sorted, deduplicated *)
  externals : string list;  (* unresolved qualified references *)
  expr : Parsetree.expression;  (* the binding's RHS, for the bandwidth pass *)
}

type callback = {
  cb_file : string;
  cb_owner : string;  (* enclosing module-level binding or module *)
  cb_label : string;  (* init | step | active | on_restart | restore | ... *)
  cb_line : int;
  cb_col : int;
  cb_calls : sym list;
  cb_externals : string list;
}

type t = {
  files : string list;
  bindings : (sym, binding) Hashtbl.t;
  order : sym list;  (* deterministic iteration order *)
  callbacks : callback list;
}

type resolver = {
  file_index : (string, (string list * string) list) Hashtbl.t;
      (* file -> [(path segments, dotted)] *)
  dir_files : (string * string, string) Hashtbl.t;  (* (dir, Module) -> file *)
  wrappers : (string, string) Hashtbl.t;  (* wrapper module -> dir *)
  alias_of : (string, (string, string list) Hashtbl.t) Hashtbl.t;  (* file -> aliases *)
}

let find t s = Hashtbl.find_opt t.bindings s

(* display name: file's module + in-file path, e.g. "Engine.trace_sink" *)
let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let display s = module_of_file s.s_file ^ "." ^ s.s_path

(* ------------------------------------------------------------------ *)
(* Raw collection *)

type raw_binding = {
  rb_path : string list;
  rb_loc : Location.t;
  rb_mutable : bool;
  rb_charge : bool;
  rb_refs : string list list ref;
  rb_expr : Parsetree.expression;
}

type raw_callback = {
  rc_owner : string;
  rc_label : string;
  rc_loc : Location.t;
  rc_refs : string list list;  (* locals already expanded *)
}

type raw_file = {
  rf_file : string;
  rf_bindings : raw_binding list;
  rf_aliases : (string, string list) Hashtbl.t;  (* simple name -> target path *)
  rf_callbacks : raw_callback list;
}

let flatten_lid lid = try Longident.flatten lid with _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

(* is the right-hand side of a module-level [let] a mutable container? *)
let rec is_mutable_rhs (e : P.expression) =
  match e.pexp_desc with
  | P.Pexp_constraint (e, _) -> is_mutable_rhs e
  | P.Pexp_array _ -> true
  | P.Pexp_apply ({ pexp_desc = P.Pexp_ident { txt; _ }; _ }, _) -> (
      match strip_stdlib (flatten_lid txt) with
      | [ "ref" ]
      | [ "Hashtbl"; "create" ]
      | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "copy") ]
      | [ ("Buffer" | "Queue" | "Stack" | "Weak"); "create" ]
      | [ "Bytes"; ("create" | "make" | "of_string") ]
      | [ "Atomic"; "make" ] ->
          true
      | _ -> false)
  | _ -> false

(* binding-level attribute the bandwidth pass consumes: [@@charge_site]
   marks an audited accounting entry point *)
let has_attr name (attrs : P.attributes) =
  List.exists (fun (a : P.attribute) -> a.attr_name.txt = name) attrs

let rec var_names (p : P.pattern) =
  match p.ppat_desc with
  | P.Ppat_var n -> [ n.txt ]
  | P.Ppat_alias (p, n) -> n.txt :: var_names p
  | P.Ppat_constraint (p, _) -> var_names p
  | P.Ppat_tuple ps -> List.concat_map var_names ps
  | _ -> []

(* the functor path of a module application: [Engine.Make (W)] -> Engine.Make *)
let rec functor_path (m : P.module_expr) =
  match m.pmod_desc with
  | P.Pmod_ident { txt; _ } -> flatten_lid txt
  | P.Pmod_apply (f, _) -> functor_path f
  | P.Pmod_constraint (m, _) -> functor_path m
  | _ -> []

let ends_with_make p = match List.rev p with "Make" :: _ -> true | _ -> false

(* per-node callback argument labels at [run]-shaped call sites, and
   per-node value bindings inside structures handed to [*.Make] *)
let callsite_labels = [ "init"; "step"; "active"; "on_restart" ]
let functor_labels = [ "init"; "step"; "active"; "on_restart"; "restore"; "resync"; "snapshot" ]

(* Walk the body of one module-level binding. [locals] maps local [let]
   names to the raw references of their defining expression (references
   are attributed to every collector on the stack, so a nested local's
   references also reach its enclosing closures). *)
let walk_value ~callbacks ~aliases ~owner (rb : raw_binding) expr0 =
  let locals : (string, string list list ref) Hashtbl.t = Hashtbl.create 16 in
  let stack : string list list ref list ref = ref [] in
  let add_ref p =
    if p <> [] then begin
      rb.rb_refs := p :: !(rb.rb_refs);
      List.iter (fun acc -> acc := p :: !acc) !stack
    end
  in
  (* close a raw reference list over [locals] *)
  let expand_locals refs =
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let rec go p =
      out := p :: !out;
      match p with
      | [ x ] when not (Hashtbl.mem seen x) -> (
          Hashtbl.replace seen x ();
          match Hashtbl.find_opt locals x with
          | Some acc -> List.iter go !acc
          | None -> ())
      | _ -> ()
    in
    List.iter go refs;
    !out
  in
  let register_callback label loc refs =
    callbacks :=
      { rc_owner = owner; rc_label = label; rc_loc = loc; rc_refs = expand_locals refs }
      :: !callbacks
  in
  (* collect the raw references of one expression without disturbing the
     collector stack (used for callback arguments, which are also walked
     normally) *)
  let collect_refs e =
    let acc = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.P.pexp_desc with
            | P.Pexp_ident { txt; _ } ->
                let p = flatten_lid txt in
                if p <> [] then acc := p :: !acc
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e;
    !acc
  in
  let register_functor_struct items =
    List.iter
      (fun (item : P.structure_item) ->
        match item.pstr_desc with
        | P.Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : P.value_binding) ->
                match var_names vb.pvb_pat with
                | [ name ] when List.mem name functor_labels ->
                    register_callback name vb.pvb_pat.ppat_loc (collect_refs vb.pvb_expr)
                | _ -> ())
              vbs
        | _ -> ())
      items
  in
  let rec walk_vb (vb : P.value_binding) iter =
    match var_names vb.pvb_pat with
    | [] -> iter.Ast_iterator.expr iter vb.pvb_expr
    | names ->
        let acc = ref [] in
        List.iter
          (fun n ->
            (* rebinding a name merges its previous references: over-
               approximate rather than lose a closure's captures *)
            (match Hashtbl.find_opt locals n with
            | Some prev -> acc := !prev @ !acc
            | None -> ());
            Hashtbl.replace locals n acc)
          names;
        stack := acc :: !stack;
        iter.Ast_iterator.expr iter vb.pvb_expr;
        stack := List.tl !stack
  and handle_module_expr (me : P.module_expr) iter =
    (* delegate child traversal to the default iterator (which routes
       back through the overrides); recursing through the override on
       the same node would loop *)
    match me.pmod_desc with
    | P.Pmod_apply (f, arg) -> (
        handle_module_expr f iter;
        match arg.pmod_desc with
        | P.Pmod_structure items when ends_with_make (functor_path f) ->
            register_functor_struct items;
            Ast_iterator.default_iterator.module_expr iter arg
        | _ -> handle_module_expr arg iter)
    | _ -> Ast_iterator.default_iterator.module_expr iter me
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          match e.P.pexp_desc with
          | P.Pexp_ident { txt; _ } -> add_ref (flatten_lid txt)
          | P.Pexp_let (_, vbs, body) ->
              List.iter (fun vb -> walk_vb vb iter) vbs;
              iter.expr iter body
          | P.Pexp_letmodule (name, me, body) ->
              (match name.txt with
              | Some n ->
                  let target = functor_path me in
                  if target <> [] then Hashtbl.replace aliases n target
              | None -> ());
              handle_module_expr me iter;
              iter.expr iter body
          | P.Pexp_apply ({ pexp_desc = P.Pexp_ident _; _ }, args) ->
              let labelled =
                List.filter_map
                  (function
                    | (Asttypes.Labelled l | Asttypes.Optional l), arg -> Some (l, arg)
                    | Asttypes.Nolabel, _ -> None)
                  args
              in
              if List.mem_assoc "init" labelled && List.mem_assoc "step" labelled then
                List.iter
                  (fun (l, (arg : P.expression)) ->
                    if List.mem l callsite_labels then
                      register_callback l arg.pexp_loc (collect_refs arg))
                  labelled;
              Ast_iterator.default_iterator.expr iter e
          | _ -> Ast_iterator.default_iterator.expr iter e);
      module_expr = (fun iter me -> handle_module_expr me iter);
    }
  in
  iter.expr iter expr0

(* Walk a file's structure, registering module-level bindings (qualified
   under their module path), module aliases, and callback sites. When
   [as_callbacks] is set the structure was passed to a [*.Make] functor:
   its per-node value bindings double as callback roots. *)
let rec walk_structure ~file ~prefix ~as_callbacks ~bindings ~aliases ~callbacks items =
  List.iter
    (fun (item : P.structure_item) ->
      match item.pstr_desc with
      | P.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : P.value_binding) ->
              let names = var_names vb.pvb_pat in
              List.iter
                (fun name ->
                  let rb =
                    {
                      rb_path = prefix @ [ name ];
                      rb_loc = vb.pvb_pat.ppat_loc;
                      rb_mutable = is_mutable_rhs vb.pvb_expr;
                      rb_charge = has_attr "charge_site" vb.pvb_attributes;
                      rb_refs = ref [];
                      rb_expr = vb.pvb_expr;
                    }
                  in
                  bindings := rb :: !bindings;
                  let owner = String.concat "." rb.rb_path in
                  walk_value ~callbacks ~aliases ~owner rb vb.pvb_expr;
                  if as_callbacks && List.mem name functor_labels then
                    callbacks :=
                      {
                        rc_owner = String.concat "." prefix;
                        rc_label = name;
                        rc_loc = vb.pvb_pat.ppat_loc;
                        rc_refs = !(rb.rb_refs);
                      }
                      :: !callbacks)
                names)
            vbs
      | P.Pstr_module mb -> walk_module_binding ~file ~prefix ~bindings ~aliases ~callbacks mb
      | P.Pstr_recmodule mbs ->
          List.iter (walk_module_binding ~file ~prefix ~bindings ~aliases ~callbacks) mbs
      | _ -> ())
    items

and walk_module_binding ~file ~prefix ~bindings ~aliases ~callbacks (mb : P.module_binding) =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name ->
      let rec go (me : P.module_expr) =
        match me.pmod_desc with
        | P.Pmod_ident { txt; _ } ->
            let p = flatten_lid txt in
            if p <> [] then Hashtbl.replace aliases name p
        | P.Pmod_structure items ->
            walk_structure ~file ~prefix:(prefix @ [ name ]) ~as_callbacks:false ~bindings
              ~aliases ~callbacks items
        | P.Pmod_functor (_, body) -> go body
        | P.Pmod_constraint (me, _) -> go me
        | P.Pmod_apply (f, arg) -> (
            let target = functor_path f in
            if target <> [] then Hashtbl.replace aliases name target;
            match arg.pmod_desc with
            | P.Pmod_structure items ->
                walk_structure ~file ~prefix:(prefix @ [ name ])
                  ~as_callbacks:(ends_with_make target) ~bindings ~aliases ~callbacks items
            | _ -> ())
        | _ -> ()
      in
      go mb.pmb_expr

let collect_file (file, structure) =
  let bindings = ref [] and callbacks = ref [] in
  let aliases = Hashtbl.create 16 in
  walk_structure ~file ~prefix:[] ~as_callbacks:false ~bindings ~aliases ~callbacks structure;
  {
    rf_file = file;
    rf_bindings = List.rev !bindings;
    rf_aliases = aliases;
    rf_callbacks = List.rev !callbacks;
  }

(* ------------------------------------------------------------------ *)
(* Library wrapper discovery *)

(* Directory -> wrapper module of its dune library: parse the [dune]
   file's [(library ... (name x))] when present on disk, fall back to
   the repository convention [lib/<d>] -> [Repro_<d>]. Test fixtures
   and virtual files simply get no wrapper (same-directory resolution
   still applies). *)
let wrapper_of_dir dir =
  let from_dune () =
    let dune = Filename.concat dir "dune" in
    if not (Sys.file_exists dune) then None
    else
      let ic = open_in_bin dune in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match String.index_opt text '(' with
      | None -> None
      | Some _ -> (
          (* first [(name X)] after a [(library] stanza opener *)
          let lib_at =
            let rec find i =
              if i + 8 > String.length text then None
              else if String.sub text i 8 = "(library" then Some i
              else find (i + 1)
            in
            find 0
          in
          match lib_at with
          | None -> None
          | Some start -> (
              let rec find_name i =
                if i + 5 > String.length text then None
                else if String.sub text i 5 = "(name" then
                  let j = ref (i + 5) in
                  let len = String.length text in
                  while !j < len && (text.[!j] = ' ' || text.[!j] = '\n') do
                    incr j
                  done;
                  let k = ref !j in
                  while
                    !k < len
                    && (match text.[!k] with
                       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                       | _ -> false)
                  do
                    incr k
                  done;
                  if !k > !j then Some (String.sub text !j (!k - !j)) else None
                else find_name (i + 1)
              in
              match find_name start with
              | Some n -> Some (String.capitalize_ascii n)
              | None -> None))
  in
  match try from_dune () with Sys_error _ -> None with
  | Some w -> Some w
  | None -> (
      (* convention fallback for virtual paths: lib/<d> -> Repro_<d> *)
      match List.rev (String.split_on_char '/' dir) with
      | d :: "lib" :: _ -> Some ("Repro_" ^ d)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Resolution *)

let make_resolver raws =
  let file_index = Hashtbl.create 64 in
  let dir_files = Hashtbl.create 64 in
  let wrappers = Hashtbl.create 16 in
  let alias_of = Hashtbl.create 64 in
  List.iter
    (fun rf ->
      Hashtbl.replace file_index rf.rf_file
        (List.map (fun rb -> (rb.rb_path, String.concat "." rb.rb_path)) rf.rf_bindings);
      Hashtbl.replace alias_of rf.rf_file rf.rf_aliases;
      let dir = Filename.dirname rf.rf_file in
      Hashtbl.replace dir_files (dir, module_of_file rf.rf_file) rf.rf_file;
      match wrapper_of_dir dir with
      | Some w -> Hashtbl.replace wrappers w dir
      | None -> ())
    raws;
  { file_index; dir_files; wrappers; alias_of }

let is_suffix ~suffix l =
  let ls = List.length suffix and ll = List.length l in
  ls <= ll
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (ll - ls) l = suffix

(* find a binding for path [p] inside [file]: exact match first, then
   the most specific suffix match (shortest enclosing path, then
   alphabetical, for determinism) *)
let resolve_in_file r file p =
  match Hashtbl.find_opt r.file_index file with
  | None -> None
  | Some idx -> (
      let dotted = String.concat "." p in
      if List.exists (fun (_, d) -> d = dotted) idx then Some { s_file = file; s_path = dotted }
      else
        match
          List.filter (fun (segs, _) -> is_suffix ~suffix:p segs) idx
          |> List.sort (fun (a, da) (b, db) ->
                 match Int.compare (List.length a) (List.length b) with
                 | 0 -> String.compare da db
                 | c -> c)
        with
        | (_, d) :: _ -> Some { s_file = file; s_path = d }
        | [] -> None)

let expand_aliases r file p =
  let rec go fuel p =
    if fuel = 0 then p
    else
      match p with
      | head :: rest -> (
          match Hashtbl.find_opt r.alias_of file with
          | Some aliases -> (
              match Hashtbl.find_opt aliases head with
              | Some target when target <> p -> go (fuel - 1) (target @ rest)
              | _ -> p)
          | None -> p)
      | [] -> p
  in
  go 8 p

let resolve r ~file p =
  let p = strip_stdlib (expand_aliases r file p) in
  match p with
  | [] -> None
  | [ _ ] -> resolve_in_file r file p
  | head :: rest -> (
      let dir = Filename.dirname file in
      match Hashtbl.find_opt r.dir_files (dir, head) with
      | Some sibling when sibling <> file -> resolve_in_file r sibling rest
      | _ -> (
          match Hashtbl.find_opt r.wrappers head with
          | Some libdir -> (
              match rest with
              | m :: inner when inner <> [] -> (
                  match Hashtbl.find_opt r.dir_files (libdir, m) with
                  | Some f -> resolve_in_file r f inner
                  | None -> None)
              | _ -> None)
          | None -> resolve_in_file r file p))

(* split raw references into resolved in-repo symbols and the
   qualified references that resolve nowhere, each sorted and
   deduplicated; only a qualified reference can name an external
   charging function ([Interproc.is_metrics_external]) *)
let split r ~file refs =
  let calls = ref [] and exts = ref [] in
  List.iter
    (fun p ->
      match resolve r ~file p with
      | Some s -> calls := s :: !calls
      | None ->
          let p = strip_stdlib (expand_aliases r file p) in
          if List.compare_length_with p 1 > 0 then exts := String.concat "." p :: !exts)
    refs;
  (List.sort_uniq sym_compare !calls, List.sort_uniq String.compare !exts)

(* ------------------------------------------------------------------ *)
(* Build *)

let build parsed =
  let raws = List.map collect_file parsed in
  let r = make_resolver raws in
  let bindings = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun rf ->
      List.iter
        (fun rb ->
          let calls, externals = split r ~file:rf.rf_file !(rb.rb_refs) in
          let s = { s_file = rf.rf_file; s_path = String.concat "." rb.rb_path } in
          Hashtbl.replace bindings s
            {
              file = rf.rf_file;
              line = rb.rb_loc.loc_start.pos_lnum;
              is_mutable_value = rb.rb_mutable;
              is_charge_site = rb.rb_charge;
              calls;
              externals;
              expr = rb.rb_expr;
            };
          order := s :: !order)
        rf.rf_bindings)
    raws;
  let callbacks =
    List.concat_map
      (fun rf ->
        List.map
          (fun rc ->
            let cb_calls, cb_externals = split r ~file:rf.rf_file rc.rc_refs in
            let pos = rc.rc_loc.loc_start in
            {
              cb_file = rf.rf_file;
              cb_owner = rc.rc_owner;
              cb_label = rc.rc_label;
              cb_line = pos.pos_lnum;
              cb_col = pos.pos_cnum - pos.pos_bol;
              cb_calls;
              cb_externals;
            })
          rf.rf_callbacks)
      raws
  in
  let callbacks =
    List.sort
      (fun a b ->
        match String.compare a.cb_file b.cb_file with
        | 0 -> (
            match Int.compare a.cb_line b.cb_line with
            | 0 -> (
                match Int.compare a.cb_col b.cb_col with
                | 0 -> String.compare a.cb_label b.cb_label
                | c -> c)
            | c -> c)
        | c -> c)
      callbacks
  in
  {
    files = List.map (fun (f, _) -> f) parsed;
    bindings;
    order = List.rev !order;
    callbacks;
  }
