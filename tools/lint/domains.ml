(* Domain-safety certifier (DESIGN.md §3f): can the engine be sharded
   across OCaml 5 Domains without data races?

   A columnar multicore engine would run the per-node step closures
   and the engine round loop concurrently. Any module-level mutable
   value such a region can reach is then a potential data race. This pass classifies every module-level mutable
   binding the call-graph builder detected into a three-point lattice:

   - [DomainSafe (Atomic)]  — the container is an [Atomic.t]: safe by
     construction under any interleaving;
   - [DomainSafe (Immutable-after-init)] — a write-reachability fixpoint
     over the whole-repo call graph finds no named binding that ever
     reaches the value in mutation position. Writes from anonymous
     [let () = ...] initializers run during module initialization,
     strictly before any engine run, so the value is frozen by the time
     a parallel region could observe it;
   - [Racy] — some named binding mutates it: concurrent regions could
     observe torn or lost updates.

   It then BFSes from every parallelizable region root — bindings
   annotated [@@parallel_region] (the engine round loop, the transport
   fast path) and every per-node callback site ([init]/[step]/[active]/
   [on_restart], and [RECOVERABLE]-style structures handed to [*.Make]
   functors) — and fails the build on any path to [Racy] state,
   printing the full call chain like {!Interproc} does.

   Independently of the pass/fail verdict, the JSON report ([to_json])
   inventories the [PerNode] class: run-local mutable containers
   ([let delayed = ref [] in ...]) captured by per-node closures or
   allocated inside a region root. These are safe today (one run, one
   thread) but are exactly the state the Domains refactor must shard or
   merge deterministically — the report is the refactor's work list.

   Soundness caveats are shared with the call-graph builder (purely
   syntactic: no types, no functor instantiation tracking, containers
   escaping through function arguments are invisible) and documented in
   DESIGN.md §3f. *)

module Cg = Callgraph

type clazz = Safe_atomic | Safe_immutable | Racy

let class_name = function
  | Safe_atomic -> "domain-safe (atomic)"
  | Safe_immutable -> "domain-safe (immutable-after-init)"
  | Racy -> "racy"

type state_entry = {
  st_sym : Cg.sym;
  st_kind : string;  (* container kind: "ref", "hashtbl", ... *)
  st_class : clazz;
  st_mutators : Cg.sym list;  (* named bindings mutating it directly *)
  st_line : int;
}

(* one run-local mutable container reachable from a parallel region:
   the Domains refactor must shard it or give it a deterministic merge *)
type shard_entry = {
  sh_file : string;
  sh_owner : string;  (* enclosing binding / callback owner *)
  sh_root : string;  (* "step callback" | "parallel region `...`" *)
  sh_name : string;
  sh_line : int;
  sh_col : int;
}

type report = { state : state_entry list; shards : shard_entry list }

(* ------------------------------------------------------------------ *)
(* Classification *)

let classify (cg : Cg.t) : state_entry list =
  (* direct write map: which named bindings reach each mutable value in
     mutation position? Anonymous [let ()] initializers never register
     as bindings, so init-time writes do not count — that is the
     immutable-after-init proof obligation (caveats in DESIGN.md §3f). *)
  let mutators : (Cg.sym, Cg.Sym_set.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match Cg.find cg s with
      | None -> ()
      | Some b ->
          List.iter
            (fun target ->
              let cur =
                Option.value ~default:Cg.Sym_set.empty (Hashtbl.find_opt mutators target)
              in
              Hashtbl.replace mutators target (Cg.Sym_set.add s cur))
            b.Cg.mutates)
    cg.Cg.order;
  List.filter_map
    (fun s ->
      match Cg.find cg s with
      | Some b when b.Cg.is_mutable_value ->
          let kind = Option.value ~default:"mutable" b.Cg.mutable_kind in
          let muts =
            Option.value ~default:Cg.Sym_set.empty (Hashtbl.find_opt mutators s)
            (* self-mutation (a lazy table memoizing into itself) still
               races across domains: keep it *)
          in
          let st_class =
            if kind = "atomic" then Safe_atomic
            else if Cg.Sym_set.is_empty muts then Safe_immutable
            else Racy
          in
          Some
            {
              st_sym = s;
              st_kind = kind;
              st_class;
              st_mutators = Cg.Sym_set.elements muts;
              st_line = b.Cg.line;
            }
      | _ -> None)
    cg.Cg.order

(* ------------------------------------------------------------------ *)
(* Reachability from parallel region roots *)

type root = {
  r_file : string;
  r_desc : string;  (* finding prefix, e.g. "per-node `step` callback (in X)" *)
  r_label : string;  (* chain head *)
  r_line : int;
  r_col : int;
  r_calls : Cg.sym list;
  r_shard_owner : string;
  r_captured : Cg.local_mutable list;
}

let roots (cg : Cg.t) =
  let of_callback (cb : Cg.callback) =
    {
      r_file = cb.Cg.cb_file;
      r_desc =
        Printf.sprintf "per-node `%s` callback (in %s)" cb.Cg.cb_label cb.Cg.cb_owner;
      r_label = cb.Cg.cb_label;
      r_line = cb.Cg.cb_line;
      r_col = cb.Cg.cb_col;
      r_calls = cb.Cg.cb_calls;
      r_shard_owner = cb.Cg.cb_owner;
      r_captured = cb.Cg.cb_captured;
    }
  in
  let of_region s (b : Cg.binding) =
    {
      r_file = b.Cg.file;
      r_desc = Printf.sprintf "parallel region `%s`" (Cg.display s);
      r_label = Cg.display s;
      r_line = b.Cg.line;
      r_col = b.Cg.col;
      r_calls = b.Cg.calls;
      r_shard_owner = b.Cg.path;
      r_captured = b.Cg.local_mutables;
    }
  in
  let regions =
    List.filter_map
      (fun s ->
        match Cg.find cg s with
        | Some b when b.Cg.is_region -> Some (of_region s b)
        | _ -> None)
      cg.Cg.order
  in
  regions @ List.map of_callback cg.Cg.callbacks

(* breadth-first search from one root's reference set to Racy state;
   the shortest chain to each offending value is printed in full *)
let hits_of_root (cg : Cg.t) ~racy root =
  let hits = ref [] in
  let seen_target = Hashtbl.create 8 in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let chain_to : (Cg.sym, string list) Hashtbl.t = Hashtbl.create 64 in
  let enqueue chain s =
    if not (Hashtbl.mem visited s) then begin
      Hashtbl.replace visited s ();
      Hashtbl.replace chain_to s chain;
      Queue.add s queue
    end
  in
  List.iter (enqueue []) root.r_calls;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let chain = match Hashtbl.find_opt chain_to s with Some c -> c | None -> [] in
    let chain = chain @ [ Cg.display s ] in
    match Cg.find cg s with
    | None -> ()
    | Some b ->
        if Hashtbl.mem racy s then begin
          if not (Hashtbl.mem seen_target s) then begin
            Hashtbl.replace seen_target s ();
            hits := (s, chain) :: !hits
          end
        end
        else if not b.Cg.is_mutable_value then List.iter (enqueue chain) b.Cg.calls
  done;
  List.rev !hits

let findings (cg : Cg.t) =
  let state = classify cg in
  let racy = Hashtbl.create 8 in
  let mutator_names = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.st_class = Racy then begin
        Hashtbl.replace racy e.st_sym ();
        Hashtbl.replace mutator_names e.st_sym
          (String.concat ", " (List.map Cg.display e.st_mutators))
      end)
    state;
  List.concat_map
    (fun root ->
      if not (Lint_core.applies "domain-safety" root.r_file) then []
      else
        List.map
          (fun ((s : Cg.sym), chain) ->
            let b = Cg.find cg s in
            let where =
              match b with
              | Some b -> Printf.sprintf " (%s:%d)" b.Cg.file b.Cg.line
              | None -> ""
            in
            let muts =
              match Hashtbl.find_opt mutator_names s with
              | Some m when m <> "" -> Printf.sprintf "; mutated by %s" m
              | _ -> ""
            in
            {
              Lint_core.rule = "domain-safety";
              file = root.r_file;
              line = root.r_line;
              col = root.r_col;
              message =
                Printf.sprintf
                  "%s can reach racy shared state %s%s via %s%s; convert it to Atomic, prove \
                   it immutable-after-init, or shard it per domain before the multicore \
                   refactor"
                  root.r_desc (Cg.display s) where
                  (String.concat " -> " (root.r_label :: chain))
                  muts;
            })
          (hits_of_root cg ~racy root))
    (roots cg)
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

(* ------------------------------------------------------------------ *)
(* Report *)

let report (cg : Cg.t) : report =
  let shards =
    List.concat_map
      (fun root ->
        List.map
          (fun (lm : Cg.local_mutable) ->
            {
              sh_file = root.r_file;
              sh_owner = root.r_shard_owner;
              sh_root = root.r_desc;
              sh_name = lm.Cg.lm_name;
              sh_line = lm.Cg.lm_line;
              sh_col = lm.Cg.lm_col;
            })
          root.r_captured)
      (roots cg)
    |> List.sort_uniq compare
  in
  { state = classify cg; shards }

let json_escape = Lint_core.json_escape

let to_json (cg : Cg.t) (r : report) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\n  \"schema\": \"repro-lint/domains/1\",\n";
  let racy = List.length (List.filter (fun e -> e.st_class = Racy) r.state) in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"mutable_bindings\": %d, \"racy\": %d, \"per_node_shards\": %d},\n"
       (List.length r.state) racy (List.length r.shards));
  Buffer.add_string buf "  \"state\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"symbol\": \"%s\", \"file\": \"%s\", \"line\": %d, \"kind\": \"%s\", \
            \"class\": \"%s\", \"mutators\": %s}"
           (json_escape (Effects.sym_id e.st_sym))
           (json_escape e.st_sym.Cg.s_file)
           e.st_line (json_escape e.st_kind)
           (json_escape (class_name e.st_class))
           (Effects.json_string_list (List.map Effects.sym_id e.st_mutators))))
    r.state;
  Buffer.add_string buf "\n  ],\n  \"per_node\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"file\": \"%s\", \"owner\": \"%s\", \"root\": \"%s\", \"name\": \"%s\", \
            \"line\": %d, \"col\": %d}"
           (json_escape s.sh_file) (json_escape s.sh_owner) (json_escape s.sh_root)
           (json_escape s.sh_name) s.sh_line s.sh_col))
    r.shards;
  Buffer.add_string buf "\n  ],\n  \"findings\": [\n";
  List.iteri
    (fun i (f : Lint_core.finding) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Format.asprintf "    %a" Lint_core.pp_finding_json f))
    (findings cg);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
