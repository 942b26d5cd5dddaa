(* Observability layer (lib/obs): event serialization, the ring-buffer
   recorder, zero-overhead-when-disabled, trace/metrics reconciliation,
   deterministic record/replay, the critical-path analyzer, and the
   measured allocation contracts of the hot paths and the executor. *)

module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Engine = Repro_congest.Engine
module Fault = Repro_congest.Fault
module Recovery = Repro_congest.Recovery
module Bfs_tree = Repro_congest.Bfs_tree
module Bellman_ford = Repro_congest.Bellman_ford
module Broadcast = Repro_congest.Broadcast
module Async_engine = Repro_congest.Async_engine
module Transport = Repro_congest.Transport
module Detector = Repro_congest.Detector
module Cache = Repro_serve.Cache
module Bitio = Repro_serve.Bitio
module Labeling = Repro_core.Labeling
module Event = Repro_obs.Event
module Sink = Repro_obs.Sink
module Recorder = Repro_obs.Recorder
module Trace_io = Repro_obs.Trace_io
module Replay = Repro_obs.Replay
module Critical_path = Repro_obs.Critical_path

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* every engine run in this suite is audited, like the rest of tier-1 *)
let () = Engine.audit_enabled := true

(* run [f] with a fresh recorder installed as the engine's trace sink;
   returns (result of f, recorded events) *)
let with_recorder f =
  let r = Recorder.create () in
  Engine.trace_sink := Recorder.sink r;
  let result =
    Fun.protect ~finally:(fun () -> Engine.trace_sink := Sink.null) (fun () -> f ())
  in
  (result, Recorder.to_list r)

(* ------------------------------------------------------------------ *)
(* Event JSON *)

(* each sample event with the exact line [Event.to_json] writes for it *)
let sample_lines : (Event.t * string) list =
  [
    ( Run_start { label = "bfs \"quoted\"\nline"; faulty = true },
      {|{"e":"run_start","label":"bfs \"quoted\"\nline","faulty":1}|} );
    ( Round_start { round = 0 }, {|{"e":"round_start","round":0}|} );
    ( Round_end { round = 7 }, {|{"e":"round_end","round":7}|} );
    ( Send { round = 1; src = 2; dst = 3; words = 4 },
      {|{"e":"send","round":1,"src":2,"dst":3,"words":4}|} );
    ( Deliver { send_round = 1; round = 2; src = 2; dst = 3; words = 4 },
      {|{"e":"deliver","send_round":1,"round":2,"src":2,"dst":3,"words":4}|} );
    ( Drop { send_round = 1; round = 1; src = 0; dst = 9; words = 1; reason = Link },
      {|{"e":"drop","send_round":1,"round":1,"src":0,"dst":9,"words":1,"reason":"link"}|} );
    ( Drop { send_round = 1; round = 3; src = 0; dst = 9; words = 1; reason = Receiver_down },
      {|{"e":"drop","send_round":1,"round":3,"src":0,"dst":9,"words":1,"reason":"receiver"}|} );
    ( Duplicate { round = 5; src = 1; dst = 2; copies = 2 },
      {|{"e":"duplicate","round":5,"src":1,"dst":2,"copies":2}|} );
    ( Delay { round = 5; src = 1; dst = 2; deliver_round = 8 },
      {|{"e":"delay","round":5,"src":1,"dst":2,"deliver_round":8}|} );
    ( Retransmit { round = 6; src = 4; dst = 5; seq = 11 },
      {|{"e":"retransmit","round":6,"src":4,"dst":5,"seq":11}|} );
    ( Ack { round = 7; src = 4; dst = 5; seq = 11 },
      {|{"e":"ack","round":7,"src":4,"dst":5,"seq":11}|} );
    ( Crash { round = 3; node = 6 }, {|{"e":"crash","round":3,"node":6}|} );
    ( Restart { round = 9; node = 6 }, {|{"e":"restart","round":9,"node":6}|} );
    ( Crash_window { node = 6; from_round = 3; until_round = Some 9; amnesia = true },
      {|{"e":"crash_window","node":6,"from":3,"until":9,"amnesia":1}|} );
    ( Crash_window { node = 7; from_round = 2; until_round = None; amnesia = false },
      {|{"e":"crash_window","node":7,"from":2,"until":-1,"amnesia":0}|} );
    ( Checkpoint { round = 4; node = 1; words = 17 },
      {|{"e":"checkpoint","round":4,"node":1,"words":17}|} );
    ( Recovery_resync { round = 10; node = 6 },
      {|{"e":"recovery_resync","round":10,"node":6}|} );
    ( Partition { round = 2; src = 1; dst = 4 },
      {|{"e":"partition","round":2,"src":1,"dst":4}|} );
    ( Heal { round = 6; src = 1; dst = 4 }, {|{"e":"heal","round":6,"src":1,"dst":4}|} );
    ( Corrupt { send_round = 2; deliver_round = 3; src = 1; dst = 2 },
      {|{"e":"corrupt","send_round":2,"deliver_round":3,"src":1,"dst":2}|} );
    ( Nack { round = 3; src = 2; dst = 1; seq = 5 },
      {|{"e":"nack","round":3,"src":2,"dst":1,"seq":5}|} );
    ( Link_lost { round = 4; src = 2; dst = 1; seq = 5; retries = 3 },
      {|{"e":"link_lost","round":4,"src":2,"dst":1,"seq":5,"retries":3}|} );
    ( Suspect { round = 5; node = 1; peer = 2 },
      {|{"e":"suspect","round":5,"node":1,"peer":2}|} );
    ( Clear { round = 6; node = 1; peer = 2 },
      {|{"e":"clear","round":6,"node":1,"peer":2}|} );
    ( Partition_window { links = [ (1, 4) ]; nodes = []; from_round = 2; heal_round = Some 6 },
      {|{"e":"partition_window","links":"1-4","nodes":"","from":2,"heal":6}|} );
    ( Partition_window { links = []; nodes = [ 3; 5 ]; from_round = 0; heal_round = None },
      {|{"e":"partition_window","links":"","nodes":"3,5","from":0,"heal":-1}|} );
    ( Drop { send_round = 2; round = 3; src = 4; dst = 5; words = 2; reason = Severed },
      {|{"e":"drop","send_round":2,"round":3,"src":4,"dst":5,"words":2,"reason":"severed"}|} );
    ( Drop { send_round = 2; round = 3; src = 4; dst = 5; words = 2; reason = Garbled },
      {|{"e":"drop","send_round":2,"round":3,"src":4,"dst":5,"words":2,"reason":"garbled"}|} );
    ( Drop { send_round = 2; round = 3; src = 4; dst = 5; words = 2; reason = Straggler },
      {|{"e":"drop","send_round":2,"round":3,"src":4,"dst":5,"words":2,"reason":"straggler"}|} );
    ( Pulse { round = 3; node = 2; vt = 17 },
      {|{"e":"pulse","round":3,"node":2,"vt":17}|} );
    ( Safe { round = 3; node = 2; vt = 21 }, {|{"e":"safe","round":3,"node":2,"vt":21}|} );
    ( Straggle { round = 3; node = 7; factor = 6; vt = 17 },
      {|{"e":"straggle","round":3,"node":7,"factor":6,"vt":17}|} );
    ( Skew { node = 4; offset = 3 }, {|{"e":"skew","node":4,"offset":3}|} );
    ( Straggler_cut { round = 9; node = 2; peer = 7; vt = 140 },
      {|{"e":"straggler_cut","round":9,"node":2,"peer":7,"vt":140}|} );
    ( Straggle_window { node = 7; from_round = 2; until_round = Some 9; factor = 6 },
      {|{"e":"straggle_window","node":7,"from":2,"until":9,"factor":6}|} );
    ( Straggle_window { node = 8; from_round = 4; until_round = None; factor = 0 },
      {|{"e":"straggle_window","node":8,"from":4,"until":-1,"factor":0}|} );
    ( Timing { link_latency = 2; skew = 3; seed = 42 },
      {|{"e":"timing","link_latency":2,"skew":3,"seed":42}|} );
  ]

let sample_events = List.map fst sample_lines

let test_event_json_roundtrip () =
  List.iter
    (fun (e, line) ->
      check_string "to_json" line (Event.to_json e);
      check_bool (Printf.sprintf "roundtrip %s" line) true (Event.of_json line = e))
    sample_lines;
  let fails_with line want =
    match Event.of_json line with
    | exception Event.Parse_error msg -> check_string (line ^ " error") want msg
    | _ -> Alcotest.failf "%s should raise Parse_error" line
  in
  fails_with "{broken" {|expected '"' in "{broken"|};
  fails_with {|{"e":"warp","round":1}|}
    {|unknown event kind "warp" in "{\"e\":\"warp\",\"round\":1}"|};
  fails_with {|{"e":"crash","round":3}|}
    {|missing int field "node" in "{\"e\":\"crash\",\"round\":3}"|};
  fails_with {|{"e":"drop","send_round":1,"round":2,"src":0,"dst":1,"words":1,"reason":"lost"}|}
    ({|unknown drop reason "lost" in "{\"e\":\"drop\",\"send_round\":1,\"round\":2,|}
   ^ {|\"src\":0,\"dst\":1,\"words\":1,\"reason\":\"lost\"}"|});
  fails_with {|{"e":"partition_window","links":"1-x","nodes":"","from":0,"heal":-1}|}
    ({|bad link "1-x" in "{\"e\":\"partition_window\",\"links\":\"1-x\",|}
   ^ {|\"nodes\":\"\",\"from\":0,\"heal\":-1}"|});
  fails_with {|{"e":"partition_window","links":"","nodes":"3,y","from":0,"heal":-1}|}
    ({|bad member "y" in "{\"e\":\"partition_window\",\"links\":\"\",|}
   ^ {|\"nodes\":\"3,y\",\"from\":0,\"heal\":-1}"|});
  (* the writer escapes only ASCII control bytes: any other \u escape
     is malformed *)
  List.iter
    (fun esc ->
      let line = Printf.sprintf {|{"e":"run_start","label":"a%sb","faulty":0}|} esc in
      match Event.of_json line with
      | exception Event.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%s should raise Parse_error" line))
    [ {|\u00e9|}; {|\u0100|}; {|\u00_1|}; {|\u00|} ]

(* [json_escape] writes every control byte but '\n' as \u00XX, so the
   reader must take any byte string back *)
let prop_run_start_label_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json e) = e, Run_start with any byte-string label"
    ~count:500
    QCheck.(pair string bool)
    (fun (label, faulty) ->
      let e = Event.Run_start { label; faulty } in
      Event.of_json (Event.to_json e) = e)

let test_trace_io_jsonl_roundtrip () =
  let path = Filename.temp_file "repro_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_jsonl ~path sample_events;
      check_bool "jsonl roundtrip" true (Trace_io.read_jsonl ~path = sample_events))

(* ------------------------------------------------------------------ *)
(* Recorder *)

let test_recorder_grows () =
  let r = Recorder.create () in
  for i = 0 to 9_999 do
    Recorder.record r (Event.Round_end { round = i })
  done;
  check_int "length" 10_000 (Recorder.length r);
  check_int "nothing overwritten" 0 (Recorder.overwritten r);
  match Recorder.to_list r with
  | Event.Round_end { round = 0 } :: _ -> ()
  | _ -> Alcotest.fail "oldest event should be first"

let test_recorder_wraps_at_capacity () =
  let r = Recorder.create ~capacity:256 () in
  for i = 0 to 999 do
    Recorder.record r (Event.Round_end { round = i })
  done;
  check_int "bounded" 256 (Recorder.length r);
  check_int "overwritten count" (1000 - 256) (Recorder.overwritten r);
  (match Recorder.to_list r with
  | Event.Round_end { round } :: _ -> check_int "keeps the newest window" 744 round
  | _ -> Alcotest.fail "unexpected head");
  Recorder.clear r;
  check_int "clear" 0 (Recorder.length r)

(* ------------------------------------------------------------------ *)
(* Zero overhead when disabled: identical Metrics with and without a
   sink, including the per-label (round-for-round) breakdown. *)

let faulty_pipeline () =
  let g = Generators.partial_k_tree ~seed:42 28 3 ~keep:0.6 in
  let gw = Generators.random_weights ~seed:42 ~max_weight:9 g in
  let profile =
    Fault.profile ~drop:0.15 ~duplicate:0.1 ~max_delay:2
      ~crashes:[ Fault.crash 3 ~from:2 ~until:12 ~mode:Fault.Amnesia ]
      ()
  in
  let m = Metrics.create () in
  let t =
    Bfs_tree.build
      ~faults:(Fault.create ~seed:7 profile)
      ~recovery:{ Recovery.checkpoint_every = 4 } g ~root:0 ~metrics:m
  in
  let d =
    Bellman_ford.run
      ~faults:(Fault.create ~seed:8 profile)
      ~recovery:{ Recovery.checkpoint_every = 4 } gw ~source:0 ~metrics:m
  in
  (t.Bfs_tree.dist, d, m)

let test_tracing_off_vs_on_identical_metrics () =
  let dist_off, d_off, m_off = faulty_pipeline () in
  let (dist_on, d_on, m_on), events = with_recorder faulty_pipeline in
  check_bool "bfs output unchanged" true (dist_off = dist_on);
  check_bool "sssp output unchanged" true (d_off = d_on);
  check_string "metrics identical byte-for-byte (incl. per-label rounds)"
    (Metrics.to_json m_off) (Metrics.to_json m_on);
  check_bool "trace actually recorded" true (List.length events > 0)

(* ------------------------------------------------------------------ *)
(* Satellite: trace event counts reconcile exactly with Metrics. *)

let count pred events = List.fold_left (fun n e -> if pred e then n + 1 else n) 0 events

let sum f events = List.fold_left (fun n e -> n + f e) 0 events

let reconcile_with_metrics (m : Metrics.t) events =
  check_int "Send events = messages" (Metrics.get m Messages)
    (count (function Event.Send _ -> true | _ -> false) events);
  check_int "Send words = words" (Metrics.get m Words)
    (sum (function Event.Send { words; _ } -> words | _ -> 0) events);
  check_int "Deliver events = delivered" (Metrics.get m Delivered)
    (count (function Event.Deliver _ -> true | _ -> false) events);
  check_int "Drop events = dropped" (Metrics.get m Dropped)
    (count (function Event.Drop _ -> true | _ -> false) events);
  check_int "Duplicate extra copies = duplicated" (Metrics.get m Duplicated)
    (sum (function Event.Duplicate { copies; _ } -> copies - 1 | _ -> 0) events);
  check_int "Retransmit events = retransmissions" (Metrics.get m Retransmissions)
    (count (function Event.Retransmit _ -> true | _ -> false) events);
  check_int "Corrupt events = corrupted" (Metrics.get m Corrupted)
    (count (function Event.Corrupt _ -> true | _ -> false) events);
  check_int "Checkpoint events = checkpoints" (Metrics.get m Checkpoints)
    (count (function Event.Checkpoint _ -> true | _ -> false) events);
  check_int "Checkpoint words = checkpoint_words" (Metrics.get m Checkpoint_words)
    (sum (function Event.Checkpoint { words; _ } -> words | _ -> 0) events);
  check_int "Round_end events = rounds" (Metrics.rounds m)
    (count (function Event.Round_end _ -> true | _ -> false) events)

let prop_trace_reconciles_with_metrics =
  QCheck.Test.make
    ~name:"trace event counts = Metrics counters for any seeded fault profile" ~count:25
    QCheck.(
      quad (int_range 0 1000) (int_range 8 24) (int_range 2 3) (int_range 0 40))
    (fun (seed, n, k, drop_pct) ->
      let g = Generators.partial_k_tree ~seed n k ~keep:0.6 in
      let profile =
        Fault.profile
          ~drop:(float_of_int drop_pct /. 100.0)
          ~duplicate:0.15 ~max_delay:2 ~corrupt:0.1
          ~crashes:[ Fault.crash (seed mod n) ~from:2 ~until:10 ~mode:Fault.Amnesia ]
          ()
      in
      let (m, dist_ok), events =
        with_recorder (fun () ->
            let m = Metrics.create () in
            let root = (seed + 1) mod n in
            let t =
              Bfs_tree.build
                ~faults:(Fault.create ~seed:(seed + 5) profile)
                ~recovery:{ Recovery.checkpoint_every = 3 } g ~root ~metrics:m
            in
            (m, t.Bfs_tree.dist = Traversal.bfs_undirected g root))
      in
      reconcile_with_metrics m events;
      dist_ok)

(* ------------------------------------------------------------------ *)
(* Acceptance criterion: deterministic record/replay. A run recorded
   under a random seeded adversary, replayed through Engine.run with a
   scripted adversary rebuilt from the trace alone, reproduces outputs
   and Metrics byte-for-byte. *)

let scripted_of_trace events = Fault.of_replay (Replay.of_events events)

let prop_replay_determinism =
  QCheck.Test.make
    ~name:"record/replay reproduces outputs and Metrics byte-for-byte" ~count:25
    QCheck.(
      quad (int_range 0 1000) (int_range 8 24) (int_range 0 40) (int_range 0 4))
    (fun (seed, n, drop_pct, interval) ->
      let g = Generators.partial_k_tree ~seed n 3 ~keep:0.6 in
      let gw = Generators.random_weights ~seed ~max_weight:9 g in
      (* all six fault classes at once: drop, duplicate, delay, crash,
         (healing) partition, corruption — the trace alone must be
         enough to reproduce the run byte-for-byte *)
      let profile =
        Fault.profile
          ~drop:(float_of_int drop_pct /. 100.0)
          ~duplicate:0.2 ~max_delay:2 ~corrupt:0.12
          ~crashes:[ Fault.crash (seed mod n) ~from:3 ~until:11 ~mode:Fault.Amnesia ]
          ~partitions:
            [
              Fault.partition ~from:2 ~heal:(10 + (seed mod 7)) (Fault.Around [ (seed + 3) mod n ]);
              Fault.partition ~from:0 ~heal:5
                (Fault.Links [ ((seed + 1) mod n, (seed + 2) mod n) ]);
            ]
          ()
      in
      let recovery = { Recovery.checkpoint_every = interval } in
      let root = (seed + 2) mod n in
      (* two engine runs under ONE adversary instance, like the CLIs do:
         exercises the per-run sectioning of the schedule *)
      let execute faults =
        let m = Metrics.create () in
        let t = Bfs_tree.build ~faults ~recovery g ~root ~metrics:m in
        let d = Bellman_ford.run ~faults ~recovery gw ~source:root ~metrics:m in
        (t.Bfs_tree.dist, d, Metrics.to_json m)
      in
      let recorded, events =
        with_recorder (fun () -> execute (Fault.create ~seed:(seed + 9) profile))
      in
      let replayed = execute (scripted_of_trace events) in
      recorded = replayed)

(* run [f] on the asynchronous executor (forced, as --async does) *)
let with_async f =
  Async_engine.forced := true;
  Fun.protect ~finally:(fun () -> Async_engine.forced := false) f

let prop_async_exactness =
  QCheck.Test.make
    ~name:
      "async under timing faults = sync, byte-for-byte outputs and core Metrics"
    ~count:25
    QCheck.(
      quad (int_range 0 1000) (int_range 8 24) (int_range 0 30) (int_range 2 12))
    (fun (seed, n, drop_pct, factor) ->
      let g = Generators.partial_k_tree ~seed n 3 ~keep:0.6 in
      let gw = Generators.random_weights ~seed ~max_weight:9 g in
      (* the same message-fault profile both ways; the async run adds
         the timing dimension on top (bounded stragglers, wire latency,
         clock skew) — none of it may change what is computed or what
         the message-level adversary is charged for *)
      let base ?(stragglers = []) ?(link_latency = 0) ?(skew = 0) () =
        Fault.profile
          ~drop:(float_of_int drop_pct /. 100.0)
          ~duplicate:0.15 ~max_delay:2
          ~crashes:[ Fault.crash (seed mod n) ~from:3 ~until:10 ~mode:Fault.Amnesia ]
          ~partitions:
            [ Fault.partition ~from:2 ~heal:8 (Fault.Around [ (seed + 3) mod n ]) ]
          ~stragglers ~link_latency ~skew ()
      in
      let execute ~async profile =
        let run () =
          let m = Metrics.create () in
          let t = Bfs_tree.build ~faults:(Fault.create ~seed:(seed + 7) profile) g ~root:0 ~metrics:m in
          let d =
            Bellman_ford.run ~faults:(Fault.create ~seed:(seed + 8) profile) gw ~source:0 ~metrics:m
          in
          (t.Bfs_tree.dist, d, m)
        in
        if async then with_async run else run ()
      in
      let dist_s, d_s, m_s = execute ~async:false (base ()) in
      let dist_a, d_a, m_a =
        execute ~async:true
          (base
             ~stragglers:[ Fault.straggle (seed mod n) ~from:2 ~until:9 ~factor ]
             ~link_latency:(seed mod 3) ~skew:(seed mod 5) ())
      in
      check_bool "bfs dist identical" true (dist_s = dist_a);
      check_bool "sssp identical" true (d_s = d_a);
      check_int "rounds" (Metrics.rounds m_s) (Metrics.rounds m_a);
      List.iter
        (fun c -> check_int (Metrics.name c) (Metrics.get m_s c) (Metrics.get m_a c))
        Metrics.[ Messages; Words; Delivered; Dropped; Duplicated; Corrupted ];
      check_int "sync run pulses no virtual clock" 0 (Metrics.get m_s Pulses);
      check_bool "async run pulsed" true (Metrics.get m_a Pulses > 0);
      true)

let prop_async_replay_determinism =
  QCheck.Test.make
    ~name:"async record/replay reproduces outputs and Metrics byte-for-byte"
    ~count:25
    QCheck.(
      quad (int_range 0 1000) (int_range 8 24) (int_range 0 30) (int_range 2 12))
    (fun (seed, n, drop_pct, factor) ->
      let g = Generators.partial_k_tree ~seed n 3 ~keep:0.6 in
      let gw = Generators.random_weights ~seed ~max_weight:9 g in
      (* every fault class at once, timing included: the trace alone
         (message plans + straggle/timing windows) must rebuild the
         whole adversary, virtual-time schedule and all *)
      let profile =
        Fault.profile
          ~drop:(float_of_int drop_pct /. 100.0)
          ~duplicate:0.2 ~max_delay:2 ~corrupt:0.12
          ~crashes:[ Fault.crash (seed mod n) ~from:3 ~until:11 ~mode:Fault.Amnesia ]
          ~partitions:
            [ Fault.partition ~from:2 ~heal:9 (Fault.Around [ (seed + 3) mod n ]) ]
          ~stragglers:
            [
              Fault.straggle (seed mod n) ~from:2 ~until:9 ~factor;
              Fault.straggle ((seed + 5) mod n) ~from:4 ~until:8 ~factor:0;
            ]
          ~link_latency:(seed mod 3) ~skew:(seed mod 5) ()
      in
      let execute faults =
        with_async (fun () ->
            let m = Metrics.create () in
            let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
            let d = Bellman_ford.run ~faults gw ~source:0 ~metrics:m in
            (t.Bfs_tree.dist, d, Metrics.to_json m))
      in
      let recorded, events =
        with_recorder (fun () -> execute (Fault.create ~seed:(seed + 9) profile))
      in
      let replayed = execute (scripted_of_trace events) in
      recorded = replayed)

let test_async_replay_divergence_raises () =
  let g = Generators.k_tree ~seed:3 12 2 in
  let profile =
    Fault.profile ~drop:0.3
      ~stragglers:[ Fault.straggle 5 ~from:2 ~until:8 ~factor:4 ]
      ~link_latency:1 ()
  in
  let _, events =
    with_recorder (fun () ->
        with_async (fun () ->
            let m = Metrics.create () in
            Bfs_tree.build ~faults:(Fault.create ~seed:4 profile) ~reliable:true g
              ~root:0 ~metrics:m))
  in
  let other = Generators.k_tree ~seed:99 16 3 in
  match
    with_async (fun () ->
        let m = Metrics.create () in
        Bfs_tree.build ~faults:(scripted_of_trace events) ~reliable:true other ~root:0
          ~metrics:m)
  with
  | exception Replay.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Replay.Divergence on a mismatched async execution"

let test_replay_divergence_raises () =
  (* replaying a trace against a different execution must fail loudly,
     not silently produce garbage *)
  let g = Generators.k_tree ~seed:3 12 2 in
  let profile = Fault.profile ~drop:0.3 () in
  let _, events =
    with_recorder (fun () ->
        let m = Metrics.create () in
        Bfs_tree.build ~faults:(Fault.create ~seed:4 profile) ~reliable:true g ~root:0
          ~metrics:m)
  in
  let other = Generators.k_tree ~seed:99 16 3 in
  match
    let m = Metrics.create () in
    Bfs_tree.build ~faults:(scripted_of_trace events) ~reliable:true other ~root:0 ~metrics:m
  with
  | exception Replay.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Replay.Divergence on a mismatched execution"

(* the profile's static part travels in the trace's window events:
   every window kind, the link latency and the skew must come back
   field for field, and the timing seed with them. The windows open
   after the run ends, so only the statics decide the outcome. *)
let test_replay_rebuilds_profile () =
  let profile =
    Fault.profile
      ~crashes:
        [
          Fault.crash 0 ~from:100 ~until:110;
          Fault.crash 1 ~from:101 ~until:111 ~mode:Fault.Amnesia;
          Fault.crash 2 ~from:102;
        ]
      ~partitions:
        [
          Fault.partition ~from:100 ~heal:104 (Fault.Links [ (0, 1); (2, 3) ]);
          Fault.partition ~from:103 (Fault.Around [ 3; 1 ]);
        ]
      ~stragglers:
        [
          Fault.straggle 0 ~from:100 ~until:109 ~factor:4;
          Fault.straggle 1 ~from:101 ~until:105;
          Fault.straggle 2 ~from:102 ~factor:3;
          Fault.straggle 3 ~from:103;
        ]
      ~link_latency:2 ~skew:3 ()
  in
  let _, events =
    with_recorder (fun () ->
        Bfs_tree.build ~faults:(Fault.create ~seed:9 profile) (Generators.path 4) ~root:0
          ~metrics:(Metrics.create ()))
  in
  let replayed = scripted_of_trace events in
  let p = Fault.profile_of replayed in
  check_bool "crash windows" true (p.crashes = profile.crashes);
  check_bool "partition windows" true (p.partitions = profile.partitions);
  check_bool "straggler windows" true (p.stragglers = profile.stragglers);
  check_int "link latency" 2 p.link_latency;
  check_int "skew" 3 p.skew;
  check_int "timing seed" 9 (Fault.seed_of replayed)

(* ------------------------------------------------------------------ *)
(* Golden traces: the digests of the recorded JSONL trace and of
   Metrics.to_json for six fixed-seed runs, one per executor mode —
   sync, reliable transport, crash recovery, async, deadline-paced and
   the failure detector (suspicions raised and cleared, a Partial
   verdict). A change here means the executor's observable schedule
   changed, and traces recorded before it no longer replay. *)

let golden name ~shows ~trace ~metrics run =
  Alcotest.test_case name `Quick (fun () ->
      let m, events =
        with_recorder (fun () ->
            let m = Metrics.create () in
            run m;
            m)
      in
      check_bool "the run exercises its mode" true (List.exists shows events);
      let digest s = Digest.to_hex (Digest.string s) in
      let jsonl = String.concat "" (List.map (fun e -> Event.to_json e ^ "\n") events) in
      check_string "trace digest" trace (digest jsonl);
      check_string "metrics digest" metrics (digest (Metrics.to_json m)))

let golden_graph = Generators.partial_k_tree ~seed:3 20 2 ~keep:0.7

let golden_cases =
  [
    golden "fault-free bfs"
      ~shows:(function Event.Deliver _ -> true | _ -> false)
      ~trace:"294534bb40ee3f910173fef732eece5e"
      ~metrics:"514a92833a11722c981021ed38014b44" (fun m ->
        ignore (Bfs_tree.build golden_graph ~root:0 ~metrics:m));
    golden "bellman-ford over transport"
      ~shows:(function Event.Retransmit _ -> true | _ -> false)
      ~trace:"5b55304fb91d05b5ec0546a0df69f72a"
      ~metrics:"55e60e377a9a89d719a658052005e296" (fun m ->
        let faults =
          Fault.create ~seed:11
            (Fault.profile ~drop:0.2 ~duplicate:0.15 ~max_delay:2 ~corrupt:0.1 ())
        in
        let gw = Generators.random_weights ~seed:3 ~max_weight:9 golden_graph in
        ignore (Bellman_ford.run ~faults ~reliable:true gw ~source:0 ~metrics:m));
    golden "bfs under recovery"
      ~shows:(function Event.Recovery_resync _ -> true | _ -> false)
      ~trace:"e4379a6e7ab6e6f214ebd3ec6b6e31c5"
      ~metrics:"2d7fa385cb418e085857cfe662901554" (fun m ->
        let faults =
          Fault.create ~seed:5
            (Fault.profile ~drop:0.1
               ~crashes:[ Fault.crash 4 ~from:3 ~until:9 ~mode:Fault.Amnesia ]
               ~partitions:[ Fault.partition ~from:2 ~heal:7 (Fault.Around [ 6 ]) ]
               ())
        in
        ignore
          (Bfs_tree.build ~faults ~recovery:{ Recovery.checkpoint_every = 3 } golden_graph
             ~root:0 ~metrics:m));
    golden "forced async"
      ~shows:(function Event.Straggle _ -> true | _ -> false)
      ~trace:"5be73c5884be377faacf3c4a20137d63"
      ~metrics:"42e97e6381880a41ecb49c9b1d2db2b3" (fun m ->
        let profile =
          Fault.profile ~drop:0.1 ~duplicate:0.1 ~max_delay:1
            ~stragglers:[ Fault.straggle 5 ~from:2 ~until:9 ~factor:4 ]
            ~link_latency:2 ~skew:3 ()
        in
        let gw = Generators.random_weights ~seed:3 ~max_weight:9 golden_graph in
        with_async (fun () ->
            ignore (Bfs_tree.build ~faults:(Fault.create ~seed:7 profile) golden_graph ~root:0 ~metrics:m);
            ignore
              (Bellman_ford.run ~faults:(Fault.create ~seed:8 profile) ~reliable:true gw
                 ~source:0 ~metrics:m)));
    golden "deadline-paced stall"
      ~shows:(function Event.Straggler_cut _ -> true | _ -> false)
      ~trace:"8186003feb24a3dbf3ef9c468abfade5"
      ~metrics:"9a7d0b04b83b2c6f69bf1d30ce2c231c" (fun m ->
        let g = Generators.k_tree ~seed:5 12 2 in
        let faults =
          Fault.create ~seed:1
            (Fault.profile
               ~stragglers:
                 [ Fault.straggle 7 ~from:2 ~factor:40; Fault.straggle 2 ~from:4 ~factor:0 ]
               ())
        in
        let saved = !Async_engine.deadline in
        Async_engine.deadline := 4;
        Fun.protect ~finally:(fun () -> Async_engine.deadline := saved) (fun () ->
            ignore (Bfs_tree.build_certified ~faults g ~root:0 ~metrics:m)));
    golden "certified under a permanent cut"
      ~shows:(function Event.Clear _ -> true | _ -> false)
      ~trace:"0f0a4628d726043c57ed6b6a128a7a94"
      ~metrics:"fcfd2a2d23371bb9f5948f45059e8251" (fun m ->
        let faults =
          Fault.create ~seed:1
            (Fault.profile ~drop:0.2 ~corrupt:0.1
               ~partitions:[ Fault.partition ~from:3 (Fault.Around [ 6 ]) ]
               ())
        in
        match Bfs_tree.build_certified ~faults ~max_retries:4 golden_graph ~root:0 ~metrics:m with
        | _, Detector.Partial _ -> ()
        | _, Detector.Complete -> Alcotest.fail "a permanent cut must give a Partial verdict");
  ]

(* ------------------------------------------------------------------ *)
(* Critical path *)

let test_critical_path_flood_on_path () =
  let g = Generators.path 7 in
  let _, events =
    with_recorder (fun () ->
        let m = Metrics.create () in
        Broadcast.flood g ~root:0 ~value:9 ~metrics:m)
  in
  match Critical_path.analyze_all events with
  | [ r ] ->
      (* the flood's longest dependency chain is the hop path to the far
         end (6 messages) plus the far node's forward-back echo to its
         own neighbors, and it must be strictly causal *)
      check_int "chain length = eccentricity + 1" 7 (Critical_path.chain_length r);
      let rec causal = function
        | (a : Critical_path.link) :: (b :: _ as rest) ->
            check_bool "delivered before next send" true (a.deliver_round <= b.send_round);
            check_bool "send precedes delivery" true (a.send_round < a.deliver_round);
            causal rest
        | [ (a : Critical_path.link) ] ->
            check_bool "send precedes delivery" true (a.send_round < a.deliver_round)
        | [] -> ()
      in
      causal r.Critical_path.chain;
      check_bool "lower bound holds" true (Critical_path.chain_length r <= r.Critical_path.rounds)
  | rs -> Alcotest.fail (Printf.sprintf "expected one run section, got %d" (List.length rs))

let test_congestion_csv_and_chrome_export () =
  let g = Generators.k_tree ~seed:11 14 2 in
  let _, events =
    with_recorder (fun () ->
        let m = Metrics.create () in
        Bfs_tree.build
          ~faults:(Fault.create ~seed:12 (Fault.profile ~drop:0.2 ()))
          ~reliable:true g ~root:0 ~metrics:m)
  in
  let csv = Filename.temp_file "repro_obs" ".csv" in
  let chrome = Filename.temp_file "repro_obs" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove csv;
      Sys.remove chrome)
    (fun () ->
      Trace_io.write_congestion_csv ~path:csv events;
      Trace_io.write_chrome ~path:chrome events;
      let ic = open_in csv in
      let header = input_line ic in
      close_in ic;
      check_string "csv header" "run,label,src,dst,sent,words,delivered,dropped,retransmits"
        header;
      let ic = open_in chrome in
      let first = input_line ic in
      close_in ic;
      check_string "chrome json array" "[" first)

(* ------------------------------------------------------------------ *)
(* Trace volume of the global-view recursion *)

(* Every charge basis of a decomposition is measured on one BFS tree, so
   the only message-level run a trace of Build.decompose holds is that
   tree's flood — not one uncharged flood per basis measurement. *)
let test_decompose_traces_one_flood () =
  let g =
    Generators.bidirect ~seed:1 ~max_weight:9
      (Generators.partial_k_tree ~seed:128 128 3 ~keep:0.6)
  in
  let _, events =
    with_recorder (fun () -> Repro_treedec.Build.decompose g ~metrics:(Metrics.create ()))
  in
  let labels =
    List.filter_map (function Event.Run_start { label; _ } -> Some label | _ -> None) events
  in
  Alcotest.(check (list string)) "one bfs-tree run" [ "bfs-tree" ] labels

(* Dl.build measures every level's basis on one charge tree and charges
   its flood once per level (4 levels here): one traced flood, and the
   same metrics as an untraced build *)
let test_dl_build_traces_one_flood () =
  let g =
    Generators.bidirect ~seed:1 ~max_weight:9
      (Generators.partial_k_tree ~seed:128 128 3 ~keep:0.6)
  in
  let dec =
    (Repro_treedec.Build.decompose g ~metrics:(Metrics.create ())).Repro_treedec.Build.decomposition
  in
  let untraced = Metrics.create () and traced = Metrics.create () in
  ignore (Repro_core.Dl.build g dec ~metrics:untraced);
  let _, events = with_recorder (fun () -> Repro_core.Dl.build g dec ~metrics:traced) in
  let labels =
    List.filter_map (function Event.Run_start { label; _ } -> Some label | _ -> None) events
  in
  Alcotest.(check (list string)) "one bfs-tree run" [ "bfs-tree" ] labels;
  check_string "metrics json" (Metrics.to_json untraced) (Metrics.to_json traced)

(* ------------------------------------------------------------------ *)
(* Allocation: the measured contract (DESIGN.md §3f) *)

(* Minor words [f ()] allocates. [Gc.minor_words] returns an unboxed
   float, so the two readings allocate nothing themselves; words that go
   straight to the major heap (blocks over 256 words) are not counted. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_zero_alloc what f =
  let w = minor_words f in
  if w <> 0.0 then Alcotest.failf "%s allocated %.0f minor words, expected 0" what w

(* the exact pattern every engine emit site compiles to: test the
   [enabled] flag, only then build the event *)
let emit_loop sink () =
  let tracing = sink.Sink.enabled in
  for i = 0 to 999 do
    if tracing then Sink.emit sink (Event.Send { round = i; src = 0; dst = 1; words = 2 })
  done

let test_zero_alloc_paths () =
  let burn = emit_loop Sink.null in
  check_zero_alloc "100 x 1000 disabled emit sites" (fun () ->
      for _ = 1 to 100 do
        burn ()
      done);
  let m = Metrics.create () in
  check_zero_alloc "Metrics.add_count" (fun () ->
      for k = 1 to 1000 do
        Metrics.add_count m Messages 1;
        (* Virtual_time is a high-water mark: one raising, one not *)
        Metrics.add_count m Virtual_time k;
        Metrics.add_count m Virtual_time 0
      done);
  check_int "high-water kept" 1000 (Metrics.get m Virtual_time);
  let c = Cache.create 4 in
  Cache.add c 1 10;
  Cache.add c 2 20;
  (* alternating keys makes every hit promote a non-head entry *)
  check_zero_alloc "Cache.find hit and miss" (fun () ->
      for _ = 1 to 1000 do
        ignore (Cache.find c 1);
        ignore (Cache.find c 2);
        ignore (Cache.find c 3)
      done);
  check_int "hits" 2000 (Cache.hits c);
  check_int "misses" 1000 (Cache.misses c);
  (* at capacity, every add of a new key evicts; re-adds refresh *)
  check_zero_alloc "Cache.add evicting and refreshing" (fun () ->
      for k = 1 to 1000 do
        Cache.add c (k * 7) k;
        Cache.add c (k * 7) (k + 1)
      done);
  check_int "evictions" 998 (Cache.evictions c);
  check_int "latest kept" 1001 (Cache.find c 7000);
  let w = Bitio.writer () in
  for i = 0 to 999 do
    Bitio.put w ~bits:7 (i land 127);
    Bitio.put_varint w (i * 1000)
  done;
  let r = Bitio.reader (Bitio.contents w) in
  check_zero_alloc "Bitio.get and get_varint" (fun () ->
      for _ = 0 to 999 do
        ignore (Bitio.get r ~bits:7);
        ignore (Bitio.get_varint r)
      done);
  check_bool "stream consumed" true (Bitio.bits_left r < 8);
  (* anchors 2 and 5 are shared, 3 and 7 one-sided, and 9 shared but
     at distance inf from u in both directions *)
  let la_u = Labeling.create 0 and la_v = Labeling.create 1 in
  List.iter
    (fun (anchor, d_to, d_from) -> Labeling.set la_u ~anchor ~d_to ~d_from)
    [ (2, 4, 1); (3, 1, 1); (5, 2, 6); (9, Digraph.inf, Digraph.inf) ];
  List.iter
    (fun (anchor, d_to, d_from) -> Labeling.set la_v ~anchor ~d_to ~d_from)
    [ (2, 3, 8); (5, 1, 1); (7, 0, 0); (9, 0, 0) ];
  check_zero_alloc "Labeling.decode" (fun () ->
      for _ = 1 to 500 do
        ignore (Labeling.decode la_u la_v);
        ignore (Labeling.decode la_v la_u)
      done);
  check_int "decode u -> v" 3 (Labeling.decode la_u la_v);
  check_int "decode v -> u" 4 (Labeling.decode la_v la_u)

(* A disabled-but-counting sink driven through a forced-async run under
   timing faults: the synchronizer's Pulse/Safe/Straggle emit sites must
   test [enabled] before constructing any event, so the counter must
   stay at zero. *)
let test_async_disabled_sink () =
  let hits = ref 0 in
  let counting_disabled = { Sink.enabled = false; emit = (fun _ -> incr hits) } in
  Engine.trace_sink := counting_disabled;
  Async_engine.forced := true;
  Fun.protect ~finally:(fun () ->
      Engine.trace_sink := Sink.null;
      Async_engine.forced := false)
  @@ fun () ->
  let g = Generators.k_tree ~seed:21 64 3 in
  let faults =
    Fault.create ~seed:3
      (Fault.profile
         ~stragglers:[ Fault.straggle 5 ~from:2 ~until:8 ~factor:4 ]
         ~link_latency:1 ~skew:2 ())
  in
  let m = Metrics.create () in
  ignore (Bfs_tree.build ~faults g ~root:0 ~metrics:m);
  check_bool "the run pulsed" true (Metrics.get m Pulses > 0);
  check_int "events built" 0 !hits

module Word = struct
  type t = int

  let words _ = 1
end

module Word_engine = Engine.Make (Word)
module Word_transport = Transport.Make (Word)

(* Minor words one whole run allocates, audit off (the audit's own
   bookkeeping is not part of the contract), and the run's metrics. *)
let run_words run =
  let m = Metrics.create () in
  Engine.audit_enabled := false;
  let w =
    Fun.protect ~finally:(fun () -> Engine.audit_enabled := true) (fun () ->
        minor_words (fun () -> run m))
  in
  (w, m)

(* Ceilings: the value measured when the ceiling was set, plus 2 words,
   so one more 2-tuple (3 words) per message or per node-step fails.
   Making either cheaper lowers them. *)
let check_ceiling name ~per ~ceiling value =
  Printf.printf "%s: %.3f minor words per %s (ceiling %.3f)\n" name value per ceiling;
  if value > ceiling then
    Alcotest.failf "%s: %.3f minor words per %s, over the ceiling of %.3f" name value per
      ceiling

let check_words_per_message name ~ceiling run =
  let w, m = run_words run in
  check_ceiling name ~per:"message" ~ceiling (w /. float_of_int (Metrics.get m Messages))

(* Every node sends one word to each neighbor for 50 rounds. The step
   function allocates nothing — each node's (state, outbox) pair is
   built before the run — so the words a run allocates are the
   executor's own. *)
let test_engine_words_per_message () =
  let g = Generators.k_tree ~seed:21 200 3 in
  let sending =
    Array.init (Digraph.n g) (fun v ->
        (true, Array.to_list (Array.map (fun u -> (u, 1)) (Digraph.neighbors g v))))
  in
  let idle = (false, []) in
  let step ~round ~node _ _ = if round < 50 then sending.(node) else idle in
  let engine m =
    ignore
      (Word_engine.run g ~init:(fun _ -> true) ~step ~active:Fun.id ~metrics:m ~label:"flood"
         ())
  in
  check_words_per_message "sync engine" ~ceiling:(9.179 +. 2.) engine;
  Async_engine.forced := true;
  Fun.protect ~finally:(fun () -> Async_engine.forced := false) (fun () ->
      check_words_per_message "forced-async engine" ~ceiling:(9.739 +. 2.) engine);
  check_words_per_message "transport, per packet" ~ceiling:(46.933 +. 2.) (fun m ->
      ignore
        (Word_transport.run g ~init:(fun _ -> true) ~step ~active:Fun.id ~metrics:m
           ~label:"flood" ()))

(* Every node stays active for 50 rounds and sends nothing, through a
   step that returns a prebuilt (state, []) pair: the words a run
   allocates per node per round are the executor's cost of stepping an
   idle node, which every live node pays every round. *)
let test_engine_words_per_idle_node_step () =
  let g = Generators.k_tree ~seed:21 200 3 in
  let busy = (true, []) and idle = (false, []) in
  let step ~round ~node:_ _ _ = if round < 50 then busy else idle in
  let check name ~ceiling run =
    let w, m = run_words run in
    check_int (name ^ ": silent") 0 (Metrics.get m Messages);
    check_ceiling name ~per:"idle node-step" ~ceiling
      (w /. float_of_int (Metrics.rounds m * Digraph.n g))
  in
  let engine m =
    ignore
      (Word_engine.run g ~init:(fun _ -> true) ~step ~active:Fun.id ~metrics:m ~label:"idle"
         ())
  in
  check "sync engine" ~ceiling:(1.042 +. 2.) engine;
  Async_engine.forced := true;
  Fun.protect ~finally:(fun () -> Async_engine.forced := false) (fun () ->
      check "forced-async engine" ~ceiling:(4.306 +. 2.) engine);
  check "transport" ~ceiling:(7.887 +. 2.) (fun m ->
      ignore
        (Word_transport.run g ~init:(fun _ -> true) ~step ~active:Fun.id ~metrics:m
           ~label:"idle" ()));
  let module Idle_recovery = Recovery.Make (struct
    module Msg = Word

    type st = bool

    let init _ = true
    let step = step
    let active = Fun.id
    let snapshot _ = [||]
    let restore ~node:_ _ = false
    let resync _ = None
  end) in
  check "recovery" ~ceiling:(12.420 +. 2.) (fun m ->
      ignore (Idle_recovery.run g ~checkpoint_every:0 ~metrics:m ~label:"idle" ()));
  (* the detector keeps beating while its watch runs down, so this row
     is not silent: it pins the beat count instead *)
  let module Idle_detector = Detector.Make (Word) in
  let w, m =
    run_words (fun m ->
        ignore
          (Idle_detector.run g ~init:(fun _ -> true)
             ~step:(fun ~round ~node ~suspected:_ st inbox -> step ~round ~node st inbox)
             ~active:Fun.id ~metrics:m ~label:"idle" ()))
  in
  check_int "detector: beats" 45_144 (Metrics.get m Messages);
  check_ceiling "detector" ~per:"idle node-step" ~ceiling:(162.323 +. 2.)
    (w /. float_of_int (Metrics.rounds m * Digraph.n g))

(* Sixty items streamed down the BFS tree of the same k-tree: every
   message is one item forwarded to one child, so the words per
   message are the stream step's (buffer, fan-out) on top of the
   engine's. At 60 items each node's buffer stays under 256 words, on
   the minor heap, where it is counted. *)
let test_stream_words_per_message () =
  let g = Generators.k_tree ~seed:21 200 3 in
  let tree = Bfs_tree.build g ~root:0 ~metrics:(Metrics.create ()) in
  let items = Array.init 60 Fun.id in
  let w, m = run_words (fun m -> ignore (Broadcast.stream_down tree ~items ~metrics:m)) in
  check_int "stream: messages" 11_940 (Metrics.get m Messages);
  check_int "stream: rounds" 64 (Metrics.rounds m);
  check_ceiling "stream" ~per:"message" ~ceiling:(17.600 +. 2.)
    (w /. float_of_int (Metrics.get m Messages))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "repro_obs"
    [
      ( "events",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "jsonl file roundtrip" `Quick test_trace_io_jsonl_roundtrip;
          q prop_run_start_label_roundtrip;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "grows" `Quick test_recorder_grows;
          Alcotest.test_case "wraps at capacity" `Quick test_recorder_wraps_at_capacity;
        ] );
      ( "zero overhead",
        [
          Alcotest.test_case "tracing off vs on: identical metrics" `Quick
            test_tracing_off_vs_on_identical_metrics;
        ] );
      ( "reconciliation",
        [ q prop_trace_reconciles_with_metrics ] );
      ( "replay",
        [
          q prop_replay_determinism;
          Alcotest.test_case "divergence raises" `Quick test_replay_divergence_raises;
          Alcotest.test_case "replay rebuilds the recorded profile" `Quick
            test_replay_rebuilds_profile;
        ] );
      ( "async",
        [
          q prop_async_exactness;
          q prop_async_replay_determinism;
          Alcotest.test_case "async divergence raises" `Quick
            test_async_replay_divergence_raises;
        ] );
      ("golden traces", golden_cases);
      ( "critical path",
        [
          Alcotest.test_case "flood on a path" `Quick test_critical_path_flood_on_path;
          Alcotest.test_case "csv + chrome export" `Quick test_congestion_csv_and_chrome_export;
        ] );
      ( "trace volume",
        [
          Alcotest.test_case "decompose floods once" `Quick test_decompose_traces_one_flood;
          Alcotest.test_case "Dl.build floods once" `Quick test_dl_build_traces_one_flood;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "zero-alloc paths" `Quick test_zero_alloc_paths;
          Alcotest.test_case "async disabled sink" `Quick test_async_disabled_sink;
          Alcotest.test_case "engine words per message" `Quick test_engine_words_per_message;
          Alcotest.test_case "engine words per idle node-step" `Quick
            test_engine_words_per_idle_node_step;
          Alcotest.test_case "stream words per message" `Quick test_stream_words_per_message;
        ] );
    ]
