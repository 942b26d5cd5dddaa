(* Shared cmdliner terms: graph family selection, fault injection,
   observability (tracing/replay) and metrics printing. *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Fault = Repro_congest.Fault
module Recorder = Repro_obs.Recorder
module Trace_io = Repro_obs.Trace_io
module Replay = Repro_obs.Replay
open Cmdliner

type family =
  | Path
  | Cycle
  | Grid
  | Ktree
  | Partial_ktree
  | Apex
  | Ring_of_rings
  | Gnp

let family_conv =
  let parse = function
    | "path" -> Ok Path
    | "cycle" -> Ok Cycle
    | "grid" -> Ok Grid
    | "ktree" -> Ok Ktree
    | "partial-ktree" -> Ok Partial_ktree
    | "apex" -> Ok Apex
    | "ring-of-rings" -> Ok Ring_of_rings
    | "gnp" -> Ok Gnp
    | s -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with
      | Path -> "path"
      | Cycle -> "cycle"
      | Grid -> "grid"
      | Ktree -> "ktree"
      | Partial_ktree -> "partial-ktree"
      | Apex -> "apex"
      | Ring_of_rings -> "ring-of-rings"
      | Gnp -> "gnp")
  in
  Arg.conv (parse, print)

let family_t =
  Arg.(
    value
    & opt family_conv Ktree
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Graph family: path, cycle, grid, ktree, partial-ktree, apex, \
           ring-of-rings, gnp.")

let n_t = Arg.(value & opt int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of vertices.")
let k_t = Arg.(value & opt int 3 & info [ "k"; "param" ] ~docv:"K" ~doc:"Treewidth parameter k.")
let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let weights_t =
  Arg.(
    value & opt int 0
    & info [ "max-weight" ] ~docv:"W"
        ~doc:"Random edge weights in 1..W (0 = unit weights).")

let input_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "input" ] ~docv:"FILE"
        ~doc:"Load the graph from FILE (Io format) instead of generating one.")

let directed_t =
  Arg.(
    value & flag
    & info [ "directed" ] ~doc:"Bidirect the graph with independent weights per direction.")

let build_graph input family n k seed max_weight directed =
  let base =
    match input with
    | Some path -> (
        (* a malformed or unreadable file is a usage error like a bad
           flag value: name the problem and exit 2 *)
        try Repro_graph.Io.load path
        with Invalid_argument msg | Sys_error msg ->
          Printf.eprintf "bad --input %s: %s\n" path msg;
          exit 2)
    | None ->
    match family with
    | Path -> Generators.path n
    | Cycle -> Generators.cycle n
    | Grid ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Generators.grid side side
    | Ktree -> Generators.k_tree ~seed n k
    | Partial_ktree -> Generators.partial_k_tree ~seed n k ~keep:0.6
    | Apex -> Generators.apex_cliques ~cliques:(max 1 (n / (k + 1))) ~size:k
    | Ring_of_rings -> Generators.ring_of_rings ~rings:(max 3 (n / 5)) ~ring_size:5
    | Gnp -> Generators.gnp_connected ~seed n (4.0 /. float_of_int n)
  in
  let weighted =
    if max_weight > 0 then Generators.random_weights ~seed ~max_weight base else base
  in
  if directed then
    Generators.bidirect ~seed ~max_weight:(max 1 max_weight) weighted
  else weighted

let graph_t =
  Term.(
    const build_graph $ input_t $ family_t $ n_t $ k_t $ seed_t $ weights_t $ directed_t)

(* ------------------------------------------------------------------ *)
(* Fault injection (DESIGN.md "Fault model"): message-level phases run
   under a seeded adversary, over the reliable transport unless
   --unreliable asks for raw faulty links. *)

type fault_config = {
  faults : Fault.t option;
  reliable : bool;
  recovery : Repro_congest.Recovery.config option;
  detector_period : int;  (* heartbeat period of the degraded-mode probe *)
  max_retries : int;  (* transport retry budget before a link is declared dead *)
  async : bool;  (* --async: force the asynchronous executor *)
}

(* does this configuration execute on the asynchronous substrate —
   forced, or routed there by a timing dimension in the profile? *)
let runs_async fc =
  fc.async
  || match fc.faults with Some f -> Fault.timing_active f | None -> false

let drop_t =
  Arg.(
    value & opt float 0.0
    & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability in [0,1).")

let dup_t =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability in [0,1).")

let delay_t =
  Arg.(
    value & opt int 0
    & info [ "delay" ] ~docv:"D"
        ~doc:"Maximum extra rounds a message copy may be held (reordering).")

let fault_seed_t =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the fault adversary.")

let unreliable_t =
  Arg.(
    value & flag
    & info [ "unreliable" ]
        ~doc:
          "Run message-level phases on raw faulty links instead of the \
           acknowledged transport (demonstrates fragility; the oracle check \
           will typically fail).")

(* The spec grammars live in Fault, next to the types they build. Every
   spec given to a repeatable flag, in command-line order, or the first
   one that does not parse, its error prefixed with the flag's name. *)
let rec parse_all flag parse = function
  | [] -> Ok []
  | spec :: rest -> (
      match parse spec with
      | Error e -> Error (Printf.sprintf "bad --%s %S: %s" flag spec e)
      | Ok x -> Result.map (List.cons x) (parse_all flag parse rest))

let crash_t =
  Arg.(
    value & opt_all string []
    & info [ "crash" ] ~docv:"NODE:FROM[:UNTIL[:MODE]]"
        ~doc:
          "Crash NODE from round FROM (repeatable). With UNTIL the node \
           restarts at that round; MODE freeze (default) preserves its state \
           across the outage, amnesia wipes it (re-runs init, or restores from \
           the recovery layer's checkpoints when --checkpoint-every is given).")

let partition_t =
  Arg.(
    value & opt_all string []
    & info [ "partition" ] ~docv:"CUT:FROM[:HEAL]"
        ~doc:
          "Sever links from round FROM (repeatable). CUT is either a link list \
           u-v[,u-v...] or a vertex cut @n[,n...] (every link touching those \
           nodes). With HEAL the cut is restored at that round; without it the \
           partition is permanent and fault-tolerant runs end with a Partial \
           verdict over the reachable component.")

let corrupt_t =
  Arg.(
    value & opt float 0.0
    & info [ "corrupt" ] ~docv:"P"
        ~doc:
          "Per-copy payload corruption probability in [0,1). The reliable \
           transport detects corrupt packets by checksum, rejects them and \
           retransmits; raw links (--unreliable) discard them as undecodable.")

let straggle_t =
  Arg.(
    value & opt_all string []
    & info [ "straggle" ] ~docv:"NODE:FROM[:UNTIL[:FACTOR]]"
        ~doc:
          "Timing adversary (repeatable; implies the asynchronous executor): \
           NODE straggles from pulse FROM. FACTOR >= 2 stretches its \
           computation by that factor; FACTOR 0 or omitted stalls it (with \
           UNTIL: a bounded stall; without: stalled forever, behaving as a \
           crash-stop). An empty UNTIL (NODE:FROM::FACTOR) makes a slowdown \
           permanent.")

let link_latency_t =
  Arg.(
    value & opt int 0
    & info [ "link-latency" ] ~docv:"L"
        ~doc:
          "Per-link latency bound (implies the asynchronous executor): each \
           wire crossing draws 0..L extra virtual-time units, keyed on the \
           fault seed.")

let skew_t =
  Arg.(
    value & opt int 0
    & info [ "skew" ] ~docv:"S"
        ~doc:
          "Bounded clock skew (implies the asynchronous executor): each node \
           starts its virtual clock 0..S units late, keyed on the fault seed.")

let async_t =
  Arg.(
    value & flag
    & info [ "async" ]
        ~doc:
          "Run on the asynchronous virtual-time executor under the \
           \xce\xb1-synchronizer even without timing faults (outputs and core \
           metrics are byte-identical to the synchronous engine).")

let pulse_deadline_t =
  Arg.(
    value & opt int 0
    & info [ "pulse-deadline" ] ~docv:"D"
        ~doc:
          "Deadline-paced pulses (asynchronous executor only; 0 = off): stop \
           waiting for a neighbor's SAFE D virtual-time units (doubling per \
           consecutive miss) after the local step ends; after 3 consecutive \
           misses the straggler is cut and its traffic dropped, so the \
           failure detector suspects it and degraded mode excises it.")

let checkpoint_every_t =
  Arg.(
    value & opt int (-1)
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Run under the checkpoint/recovery layer, snapshotting node state to \
           simulated stable storage every N rounds (0 = recovery handshake \
           only, no checkpoints). Omit to run without the recovery layer.")

let replay_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay the delivery schedule recorded in the --trace FILE instead of \
           rolling a random adversary: per-message fates and crash windows are \
           taken from the trace, so the recorded run is reproduced exactly \
           (--drop/--dup/--delay/--fault-seed are ignored; keep the other flags \
           identical to the recorded invocation).")

(* Rebuild a scripted adversary from a recorded trace. A trace whose
   runs were all fault-free replays as a plain deterministic run. *)
let load_replay path unreliable recovery ~detector_period ~max_retries ~async =
  match Trace_io.read_jsonl ~path with
  | exception Repro_obs.Event.Parse_error msg -> Error ("--replay: " ^ msg)
  | exception Sys_error msg -> Error ("--replay: " ^ msg)
  | events ->
      let r = Replay.of_events events in
      if Replay.runs r = 0 then
        Ok
          { faults = None; reliable = false; recovery; detector_period; max_retries; async }
      else
        Ok
          {
            faults = Some (Fault.of_replay r);
            reliable = not unreliable;
            recovery;
            detector_period;
            max_retries;
            async;
          }

let make_fault_config replay drop dup delay corrupt crash_specs partition_specs
    straggle_specs link_latency skew async pulse_deadline checkpoint_every fault_seed
    unreliable detector_period max_retries =
  let ( let* ) = Result.bind in
  let* crashes = parse_all "crash" Fault.parse_crash crash_specs in
  let* partitions = parse_all "partition" Fault.parse_partition partition_specs in
  let* stragglers = parse_all "straggle" Fault.parse_straggle straggle_specs in
  let* recovery =
    if checkpoint_every < -1 then Error "--checkpoint-every must be >= 0"
    else if checkpoint_every < 0 then Ok None
    else Ok (Some { Repro_congest.Recovery.checkpoint_every })
  in
  let* () = if pulse_deadline < 0 then Error "--pulse-deadline must be >= 0" else Ok () in
  (* process-wide executor dials, installed once per invocation (the
     same pattern as Engine.audit_enabled / trace_sink) *)
  Repro_congest.Async_engine.forced := async;
  Repro_congest.Async_engine.deadline := pulse_deadline;
  match replay with
  | Some path -> load_replay path unreliable recovery ~detector_period ~max_retries ~async
  | None ->
      if drop = 0.0 && dup = 0.0 && delay = 0 && corrupt = 0.0 && crashes = []
         && partitions = [] && stragglers = [] && link_latency = 0 && skew = 0
      then
        Ok
          { faults = None; reliable = false; recovery; detector_period; max_retries; async }
      else (
        match
          Fault.profile ~drop ~duplicate:dup ~max_delay:delay ~corrupt
            ~crashes ~partitions ~stragglers ~link_latency ~skew ()
        with
        | profile ->
            Ok
              {
                faults = Some (Fault.create ~seed:fault_seed profile);
                reliable = not unreliable;
                recovery;
                detector_period;
                max_retries;
                async;
              }
        | exception Invalid_argument msg -> Error msg)

let detector_period_t =
  Arg.(
    value & opt int 4
    & info [ "detector-period" ] ~docv:"P"
        ~doc:
          "Heartbeat period (rounds) of the failure detector behind the \
           degraded-mode probe; a link silent for 3*P rounds is suspected. \
           Must be >= 2.")

let max_retries_t =
  Arg.(
    value & opt int 25
    & info [ "max-retries" ] ~docv:"R"
        ~doc:
          "Transport retransmission budget per message; a link that exhausts \
           it is declared dead and abandoned (how a permanently partitioned \
           run terminates).")

let fault_config_t =
  Term.term_result' ~usage:true
    Term.(
      const make_fault_config $ replay_t $ drop_t $ dup_t $ delay_t $ corrupt_t $ crash_t
      $ partition_t $ straggle_t $ link_latency_t $ skew_t $ async_t $ pulse_deadline_t
      $ checkpoint_every_t $ fault_seed_t $ unreliable_t $ detector_period_t
      $ max_retries_t)

let print_fault_config fc =
  (match fc.faults with
  | None -> ()
  | Some f ->
      Format.printf "%a over %s links@." Fault.pp f
        (if fc.reliable then "reliable-transport" else "raw"));
  if runs_async fc then
    Format.printf "asynchronous executor on (\xce\xb1-synchronizer%s)@."
      (if !Repro_congest.Async_engine.deadline > 0 then
         Printf.sprintf ", pulse deadline %d" !Repro_congest.Async_engine.deadline
       else "");
  match fc.recovery with
  | None -> ()
  | Some { Repro_congest.Recovery.checkpoint_every } ->
      Format.printf "recovery layer on (checkpoint every %d rounds)@." checkpoint_every

(* ------------------------------------------------------------------ *)
(* Observability (DESIGN.md "Observability"): --trace records every
   engine run of the invocation into one JSONL file; --metrics-json
   mirrors each printed metrics table as one machine-readable line. *)

type obs = { trace : string option; metrics_json : bool }

let no_obs = { trace = None; metrics_json = false }

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured execution trace of every engine run to FILE \
           (JSONL, one event per line). Inspect with trace_cli, or replay with \
           --replay.")

let metrics_json_t =
  Arg.(
    value & flag
    & info [ "metrics-json" ]
        ~doc:
          "Also print each final metrics table as one JSON line on stdout, for \
           CI and scripts.")

let obs_t = Term.(const (fun trace metrics_json -> { trace; metrics_json }) $ trace_t $ metrics_json_t)

(* The trace is written from at_exit so it survives the early [exit 1]
   paths (oracle mismatches) — a failing chaos run must still leave a
   replayable trace behind. *)
let setup_obs obs =
  match obs.trace with
  | None -> ()
  | Some path ->
      let r = Recorder.create () in
      Repro_congest.Engine.trace_sink := Recorder.sink r;
      at_exit (fun () ->
          Trace_io.write_jsonl ~path (Recorder.to_list r);
          if Recorder.overwritten r > 0 then
            Printf.eprintf "trace: ring buffer overflowed, %d oldest events lost\n%!"
              (Recorder.overwritten r))

(* the machine-readable line alone — for call sites that print their
   own human table *)
let metrics_json obs ~name m =
  if obs.metrics_json then print_endline (Metrics.to_json ~name m)

let print_metrics ?(obs = no_obs) ?(name = "metrics") m =
  Format.printf "%a@." Metrics.pp m;
  metrics_json obs ~name m

let print_graph_summary g =
  Format.printf "%a, diameter %d@." Digraph.pp g
    (Repro_graph.Traversal.diameter (Digraph.skeleton g))

(* ------------------------------------------------------------------ *)
(* Certified degraded mode (DESIGN.md "Fault model"): under permanent
   faults — a non-healing partition or a crash-stop — no pipeline can
   be exact everywhere, so the CLIs first run a detector-certified BFS
   probe. Its verdict is validated against the centralized connectivity
   oracle (exit 1 on disagreement), and the pipeline then runs on the
   certified reachable component with every suspected link removed. *)

let permanent_faults fc =
  match fc.faults with
  | None -> false
  | Some f ->
      let p = Fault.profile_of f in
      List.exists (fun (pa : Fault.partition) -> pa.heal_round = None) p.Fault.partitions
      || List.exists (fun (c : Fault.crash) -> c.until_round = None) p.Fault.crashes
      (* an unbounded stall only stops a node when the run actually
         executes asynchronously — the synchronous engine keeps lockstep
         by fiat and ignores timing *)
      || (runs_async fc
         && List.exists
              (fun (s : Fault.straggle) -> s.s_until = None && s.factor = 0)
              p.Fault.stragglers)

let certified_subgraph fc obs g ~root =
  if not (permanent_faults fc) then None
  else begin
    let faults = fc.faults in
    let async = runs_async fc in
    (match faults with
    | Some f when Fault.eventually_down f root || (async && Fault.eventually_stalled f root)
      ->
        Format.printf "degraded-mode probe: root %d is crash-stopped; probe from a live node@."
          root;
        exit 1
    | _ -> ());
    let skeleton = Digraph.skeleton g in
    let pm = Metrics.create () in
    let _tree, verdict =
      Repro_congest.Bfs_tree.build_certified ?faults ~period:fc.detector_period
        ~max_retries:fc.max_retries skeleton ~root ~metrics:pm
    in
    Format.printf "probe verdict: %a@." Repro_congest.Detector.pp_verdict verdict;
    Format.printf "probe:@ %a@." Metrics.pp pm;
    metrics_json obs ~name:"probe" pm;
    let oracle = Repro_congest.Detector.oracle ?faults ~async skeleton ~root in
    let count a = Array.fold_left (fun k b -> if b then k + 1 else k) 0 a in
    match verdict with
    | Repro_congest.Detector.Complete ->
        if count oracle = Array.length oracle then None
        else begin
          Format.printf
            "probe verdict MISMATCH: Complete, but the oracle reaches only %d/%d nodes@."
            (count oracle) (Array.length oracle);
          exit 1
        end
    | Repro_congest.Detector.Partial { reachable; suspected } ->
        if reachable <> oracle then begin
          Format.printf
            "probe verdict MISMATCH: certified %d/%d reachable, oracle says %d/%d@."
            (count reachable) (Array.length reachable) (count oracle) (Array.length oracle);
          exit 1
        end;
        (* remove suspected links, then keep the reachable component *)
        let bad u v = List.mem (u, v) suspected || List.mem (v, u) suspected in
        let quads =
          Array.to_list (Digraph.edges g)
          |> List.filter (fun (e : Digraph.edge) ->
                 reachable.(e.src) && reachable.(e.dst) && not (bad e.src e.dst))
          |> List.map (fun (e : Digraph.edge) -> (e.src, e.dst, e.weight, e.label))
        in
        let pruned =
          Digraph.create_labeled ~directed:(Digraph.directed g) (Digraph.n g) quads
        in
        let g', old_of_new, new_of_old =
          Digraph.induced pruned (Repro_graph.Mask.vertices reachable)
        in
        Format.printf "degraded mode: running on the certified component (%d/%d nodes)@."
          (Digraph.n g') (Digraph.n g);
        Some (g', old_of_new, new_of_old)
  end
