(* Bottom-up effect summaries over the symbol/call graph (stage 2 of
   the interprocedural model-compliance analysis).

   Each module-level binding gets a summary — which module-level mutable
   values it can read or mutate, whether it can perform I/O, whether it
   can raise an untyped abort (failwith / assert false) — transitively
   closed over the call graph with a fixpoint, so recursion and mutual
   recursion converge. The JSON dump ([to_json]) is the machine-readable
   effect report consumed by reviewers and future analysis passes
   (built as [_build/default/analysis/effects.json]). *)

module Cg = Callgraph

type summary = {
  reads_global : Cg.Sym_set.t;  (* module-level mutables transitively referenced *)
  mutates_global : Cg.Sym_set.t;  (* subset reached in mutation position *)
  performs_io : bool;
  raises_untyped : bool;
}

type t = (Cg.sym, summary) Hashtbl.t

(* external references that constitute I/O: console, channels, the
   process environment. [Printf.sprintf] and friends are pure. *)
let io_external path =
  match String.split_on_char '.' path with
  | [ x ] -> (
      let prefixed p = String.length x >= String.length p && String.sub x 0 (String.length p) = p in
      match x with
      | "read_line" | "read_int" | "read_int_opt" | "open_in" | "open_in_bin" | "open_out"
      | "open_out_bin" | "stdout" | "stderr" | "stdin" | "exit" | "at_exit" ->
          true
      | _ -> prefixed "print_" || prefixed "prerr_" || prefixed "output_" || prefixed "input_")
  | [ ("Printf" | "Format"); f ] ->
      List.mem f [ "printf"; "eprintf"; "fprintf"; "kfprintf"; "print_string"; "print_newline" ]
  | "Unix" :: _ | "In_channel" :: _ | "Out_channel" :: _ -> true
  | [ "Filename"; ("temp_file" | "open_temp_file") ] -> true
  | [ "Sys"; f ] ->
      List.mem f
        [ "command"; "remove"; "rename"; "readdir"; "getenv"; "getenv_opt"; "time"; "chdir" ]
  | _ -> false

let untyped_external path =
  match String.split_on_char '.' path with
  | [ "failwith" ] | [ "Printf"; "failwithf" ] -> true
  | _ -> false

let direct_summary cg (b : Cg.binding) =
  let mutable_of syms =
    List.fold_left
      (fun acc s ->
        match Cg.find cg s with
        | Some t when t.Cg.is_mutable_value -> Cg.Sym_set.add s acc
        | _ -> acc)
      Cg.Sym_set.empty syms
  in
  {
    reads_global = mutable_of b.Cg.calls;
    mutates_global = mutable_of b.Cg.mutates;
    performs_io = List.exists io_external b.Cg.externals;
    raises_untyped = b.Cg.asserts_false || List.exists untyped_external b.Cg.externals;
  }

let summarize (cg : Cg.t) : t =
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match Cg.find cg s with
      | Some b -> Hashtbl.replace summaries s (direct_summary cg b)
      | None -> ())
    cg.Cg.order;
  (* fixpoint: propagate callee summaries into callers until stable *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        match (Cg.find cg s, Hashtbl.find_opt summaries s) with
        | Some b, Some cur ->
            let merged =
              List.fold_left
                (fun acc callee ->
                  match Hashtbl.find_opt summaries callee with
                  | Some cs ->
                      {
                        reads_global = Cg.Sym_set.union acc.reads_global cs.reads_global;
                        mutates_global = Cg.Sym_set.union acc.mutates_global cs.mutates_global;
                        performs_io = acc.performs_io || cs.performs_io;
                        raises_untyped = acc.raises_untyped || cs.raises_untyped;
                      }
                  | None -> acc)
                cur b.Cg.calls
            in
            if
              (not (Cg.Sym_set.equal merged.reads_global cur.reads_global))
              || (not (Cg.Sym_set.equal merged.mutates_global cur.mutates_global))
              || merged.performs_io <> cur.performs_io
              || merged.raises_untyped <> cur.raises_untyped
            then begin
              Hashtbl.replace summaries s merged;
              changed := true
            end
        | _ -> ())
      cg.Cg.order
  done;
  summaries

let find (t : t) s = Hashtbl.find_opt t s

(* ------------------------------------------------------------------ *)
(* JSON report *)

let json_escape = Lint_core.json_escape

let sym_id (s : Cg.sym) = s.Cg.s_file ^ "#" ^ s.Cg.s_path

let json_string_list l =
  "[" ^ String.concat ", " (List.map (fun s -> Printf.sprintf "%S" (json_escape s)) l) ^ "]"

let to_json (cg : Cg.t) (t : t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\n  \"schema\": \"repro-lint/effects/1\",\n  \"bindings\": [\n";
  let first = ref true in
  List.iter
    (fun s ->
      match (Cg.find cg s, find t s) with
      | Some b, Some sm ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          let syms set = json_string_list (List.map sym_id (Cg.Sym_set.elements set)) in
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"symbol\": \"%s\", \"file\": \"%s\", \"line\": %d, \"mutable_value\": \
                %b, \"reads_global\": %s, \"mutates_global\": %s, \"performs_io\": %b, \
                \"raises_untyped\": %b, \"calls\": %s, \"externals\": %s}"
               (json_escape (sym_id s))
               (json_escape b.Cg.file) b.Cg.line b.Cg.is_mutable_value (syms sm.reads_global)
               (syms sm.mutates_global) sm.performs_io sm.raises_untyped
               (json_string_list (List.map sym_id b.Cg.calls))
               (json_string_list b.Cg.externals))
      | _ -> ())
    cg.Cg.order;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
