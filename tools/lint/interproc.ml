(* Interprocedural model-compliance rules (stage 2 of 2), one
   breadth-first search per callback over the symbol/call graph
   ({!Callgraph}).

   The CONGEST reproduction's round bounds are only meaningful if
   simulated nodes exchange information exclusively through charged
   messages. All nodes share one OCaml address space, so nothing in the
   type system prevents a [step] closure from reaching a module-level
   [Hashtbl] three calls away and turning the simulator into shared
   memory. These rules certify two properties for every per-node
   callback site the call-graph builder collected:

   - [node-locality]: no function reachable from a per-node callback
     ([init]/[step]/[active]/[on_restart], or a [RECOVERABLE]-style
     structure handed to a [*.Make] functor) may reach a module-level
     mutable value. Each finding prints the full reachability chain.
   - [send-discipline]: no such function may charge [Metrics] counters
     directly — all traffic and storage accounting flows through the
     single Engine/Transport/Recovery charging path.

   Deliberate, guarded exceptions (the engine's process-wide trace
   sink; the transport/recovery layers charging their own counters)
   live in the baseline with written justifications. *)

module Cg = Callgraph

(* does a resolved symbol denote a Metrics charging function? *)
let is_metrics_charge (s : Cg.sym) =
  Filename.basename s.Cg.s_file = "metrics.ml"
  &&
  let base =
    match List.rev (String.split_on_char '.' s.Cg.s_path) with x :: _ -> x | [] -> ""
  in
  base = "add" || (String.length base > 4 && String.sub base 0 4 = "add_")

(* does an unresolved external path denote one, e.g. "Metrics.add_count"
   or "Repro_congest.Metrics.add"? *)
let is_metrics_external path =
  let rec scan = function
    | "Metrics" :: f :: _ ->
        f = "add" || (String.length f > 4 && String.sub f 0 4 = "add_")
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '.' path)

type hit = {
  h_rule : string;
  h_target : string;  (* display name of what was reached *)
  h_chain : string list;  (* callback label, intermediate bindings, target *)
  h_target_file : string;
  h_target_line : int;
}

(* breadth-first search from one callback's reference set; the parent
   map yields the shortest chain to each offending symbol *)
let hits_of_callback (cg : Cg.t) (cb : Cg.callback) =
  let hits = ref [] in
  let seen_target = Hashtbl.create 8 in
  let add_hit rule target chain file line =
    if not (Hashtbl.mem seen_target (rule, target)) then begin
      Hashtbl.replace seen_target (rule, target) ();
      hits :=
        {
          h_rule = rule;
          h_target = target;
          h_chain = cb.Cg.cb_label :: chain;
          h_target_file = file;
          h_target_line = line;
        }
        :: !hits
    end
  in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  (* chain_to maps a visited symbol to the display path from the callback *)
  let chain_to : (Cg.sym, string list) Hashtbl.t = Hashtbl.create 64 in
  let enqueue chain s =
    if not (Hashtbl.mem visited s) then begin
      Hashtbl.replace visited s ();
      Hashtbl.replace chain_to s chain;
      Queue.add s queue
    end
  in
  let check_externals chain externals =
    List.iter
      (fun e ->
        if is_metrics_external e then add_hit "send-discipline" e (chain @ [ e ]) "" 0)
      externals
  in
  check_externals [] cb.Cg.cb_externals;
  List.iter (enqueue []) cb.Cg.cb_calls;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let chain = match Hashtbl.find_opt chain_to s with Some c -> c | None -> [] in
    let chain = chain @ [ Cg.display s ] in
    match Cg.find cg s with
    | None -> ()
    | Some b ->
        if b.Cg.is_mutable_value then
          add_hit "node-locality" (Cg.display s) chain b.Cg.file b.Cg.line
        else if is_metrics_charge s then
          add_hit "send-discipline" (Cg.display s) chain b.Cg.file b.Cg.line
        else begin
          check_externals chain b.Cg.externals;
          List.iter (enqueue chain) b.Cg.calls
        end
  done;
  List.rev !hits

let finding_of_hit (cb : Cg.callback) h : Lint_core.finding =
  let chain = String.concat " -> " h.h_chain in
  let where =
    if h.h_target_file = "" then "" else Printf.sprintf " (%s:%d)" h.h_target_file h.h_target_line
  in
  let message =
    match h.h_rule with
    | "node-locality" ->
        Printf.sprintf
          "per-node `%s` callback (in %s) can reach module-level mutable %s%s via %s; nodes \
           may share information only through charged messages"
          cb.Cg.cb_label cb.Cg.cb_owner h.h_target where chain
    | _ ->
        Printf.sprintf
          "per-node `%s` callback (in %s) charges %s%s directly via %s; accounting must flow \
           through the engine's charging path"
          cb.Cg.cb_label cb.Cg.cb_owner h.h_target where chain
  in
  {
    Lint_core.rule = h.h_rule;
    file = cb.Cg.cb_file;
    line = cb.Cg.cb_line;
    col = cb.Cg.cb_col;
    message;
  }

(* All interprocedural findings over a built call graph, in stable
   (file, position, rule, message) order. *)
let findings (cg : Cg.t) =
  List.concat_map
    (fun cb ->
      List.filter_map
        (fun h ->
          if Lint_core.applies h.h_rule cb.Cg.cb_file then Some (finding_of_hit cb h) else None)
        (hits_of_callback cg cb))
    cg.Cg.callbacks
  |> List.sort (fun (a : Lint_core.finding) (b : Lint_core.finding) ->
         match String.compare a.file b.file with
         | 0 -> (
             match Int.compare a.line b.line with
             | 0 -> (
                 match Int.compare a.col b.col with
                 | 0 -> (
                     match String.compare a.rule b.rule with
                     | 0 -> String.compare a.message b.message
                     | c -> c)
                 | c -> c)
             | c -> c)
         | c -> c)

(* Convenience entry point for tests and the CLI: build the graph from
   already-parsed sources and run every interprocedural rule. *)
let analyze parsed =
  let cg = Cg.build parsed in
  (cg, findings cg)
