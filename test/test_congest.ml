module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Engine = Repro_congest.Engine
module Bfs_tree = Repro_congest.Bfs_tree
module Broadcast = Repro_congest.Broadcast
module Leader = Repro_congest.Leader
module Bellman_ford = Repro_congest.Bellman_ford
module Apsp = Repro_congest.Apsp
module Fault = Repro_congest.Fault
module Transport = Repro_congest.Transport
module Async_engine = Repro_congest.Async_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* every engine run in this suite is audited: accounting drift raises *)
let () = Engine.audit_enabled := true

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_accumulates () =
  let m = Metrics.create () in
  Metrics.add m ~label:"a" 3;
  Metrics.add m ~label:"b" 2;
  Metrics.add m ~label:"a" 1;
  Metrics.add_count m Messages 10;
  check_int "rounds" 6 (Metrics.rounds m);
  check_int "messages" 10 (Metrics.get m Messages);
  Alcotest.(check (list (pair string int))) "breakdown" [ ("a", 4); ("b", 2) ]
    (Metrics.breakdown m)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a ~label:"x" 2;
  Metrics.add b ~label:"x" 3;
  Metrics.add b ~label:"y" 1;
  Metrics.add_count b Messages 5;
  Metrics.merge ~into:a b;
  check_int "merged rounds" 6 (Metrics.rounds a);
  check_int "merged messages" 5 (Metrics.get a Messages);
  Alcotest.(check (list (pair string int))) "merged breakdown" [ ("x", 5); ("y", 1) ]
    (Metrics.breakdown a)

let test_metrics_breakdown_ordering () =
  let m = Metrics.create () in
  Metrics.add m ~label:"small" 1;
  Metrics.add m ~label:"big" 9;
  Metrics.add m ~label:"mid" 4;
  Alcotest.(check (list (pair string int))) "decreasing rounds"
    [ ("big", 9); ("mid", 4); ("small", 1) ]
    (Metrics.breakdown m)

let test_metrics_words_delivered () =
  let m = Metrics.create () in
  check_int "fresh words" 0 (Metrics.get m Words);
  check_int "fresh delivered" 0 (Metrics.get m Delivered);
  Metrics.add_count m Words 4;
  Metrics.add_count m Words 3;
  Metrics.add_count m Delivered 2;
  check_int "words" 7 (Metrics.get m Words);
  check_int "delivered" 2 (Metrics.get m Delivered);
  let b = Metrics.create () in
  Metrics.add_count b Words 5;
  Metrics.add_count b Delivered 1;
  Metrics.merge ~into:m b;
  check_int "merged words" 12 (Metrics.get m Words);
  check_int "merged delivered" 3 (Metrics.get m Delivered)

let test_metrics_fault_counters () =
  let m = Metrics.create () in
  check_int "fresh dropped" 0 (Metrics.get m Dropped);
  check_int "fresh duplicated" 0 (Metrics.get m Duplicated);
  check_int "fresh retransmissions" 0 (Metrics.get m Retransmissions);
  Metrics.add_count m Dropped 3;
  Metrics.add_count m Duplicated 2;
  Metrics.add_count m Retransmissions 7;
  Metrics.add_count m Retransmissions 1;
  check_int "dropped" 3 (Metrics.get m Dropped);
  check_int "duplicated" 2 (Metrics.get m Duplicated);
  check_int "retransmissions" 8 (Metrics.get m Retransmissions)

let test_metrics_merge_fault_counters () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add_count a Dropped 1;
  Metrics.add_count b Dropped 2;
  Metrics.add_count b Duplicated 4;
  Metrics.add_count b Retransmissions 6;
  Metrics.merge ~into:a b;
  check_int "merged dropped" 3 (Metrics.get a Dropped);
  check_int "merged duplicated" 4 (Metrics.get a Duplicated);
  check_int "merged retransmissions" 6 (Metrics.get a Retransmissions)

(* every counter's JSON key and position, and merge's rule (sums add,
   the virtual-time high-water mark takes the max): the i-th counter
   (from 1, declaration order) holds i *)
let counters_json =
  {|{"name":"x","rounds":3,"messages":1,"words":2,"delivered":3,"dropped":4,"duplicated":5,"retransmissions":6,"corrupted":7,"rejected":8,"suspicions":9,"link_failures":10,"checkpoints":11,"checkpoint_words":12,"recoveries":13,"resync_rounds":14,"pulses":15,"safe_messages":16,"straggles":17,"virtual_time":18,"cache_hits":19,"cache_misses":20,"cache_evictions":21,"labels":{"a":3}}|}

let test_metrics_counters_json () =
  let m = Metrics.create () in
  List.iteri (fun i c -> Metrics.add_count m c (i + 1)) Metrics.counters;
  Metrics.add m ~label:"a" 3;
  Alcotest.(check string) "json" counters_json (Metrics.to_json ~name:"x" m);
  let twice = Metrics.create () in
  Metrics.merge ~into:twice m;
  Metrics.merge ~into:twice m;
  (* sums double; the virtual-time makespan is a high-water mark *)
  List.iteri
    (fun i c ->
      let v = i + 1 in
      check_int (Metrics.name c) (if c = Virtual_time then v else 2 * v) (Metrics.get twice c))
    Metrics.counters;
  Alcotest.(check (list (pair string int))) "labels" [ ("a", 6) ] (Metrics.breakdown twice)

let test_metrics_pp () =
  let m = Metrics.create () in
  Metrics.add_count m Dropped 2;
  Metrics.add_count m Pulses 5;
  Metrics.add m ~label:"a" 3;
  (* rounds and messages always; other counters only when nonzero *)
  Alcotest.(check string) "pp" "rounds=3 messages=0 dropped=2 pulses=5\n  a                        3"
    (Format.asprintf "%a" Metrics.pp m)

(* ------------------------------------------------------------------ *)
(* Engine *)

module IntMsg = struct
  type t = int

  let words _ = 1
end

module E = Engine.Make (IntMsg)

(* The engine contract (bandwidth checks, diagnostics, round limit,
   inbox order) is the same in both executor modes: [in_mode ~async:true]
   runs a case on the α-synchronizer, as the --async flag does. *)
let in_mode ~async f =
  let saved = !Async_engine.forced in
  Async_engine.forced := async;
  Fun.protect ~finally:(fun () -> Async_engine.forced := saved) f

let both_modes name f =
  [
    Alcotest.test_case name `Quick (fun () -> in_mode ~async:false f);
    Alcotest.test_case (name ^ " async") `Quick (fun () -> in_mode ~async:true f);
  ]

let test_engine_enforces_bandwidth () =
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  Alcotest.check_raises "duplicate send rejected"
    (Invalid_argument "Engine.run(t): round 0: node 0 sent two messages to 1 in one round")
    (fun () ->
      ignore
        (E.run sk
           ~init:(fun _ -> true)
           ~step:(fun ~round:_ ~node st _ ->
             if node = 0 && st then (false, [ (1, 1); (1, 2) ]) else (false, []))
           ~active:Fun.id ~metrics:m ~label:"t" ()))

let test_engine_rejects_non_neighbor () =
  let sk = Generators.path 3 in
  let m = Metrics.create () in
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Engine.run(t): round 0: node 0 sent to non-neighbor 2") (fun () ->
      ignore
        (E.run sk
           ~init:(fun _ -> true)
           ~step:(fun ~round:_ ~node st _ ->
             if node = 0 && st then (false, [ (2, 1) ]) else (false, []))
           ~active:Fun.id ~metrics:m ~label:"t" ()))

let test_engine_counts_rounds () =
  (* one hop of communication = 2 engine rounds: send round + delivery round *)
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  let states =
    E.run sk
      ~init:(fun v -> if v = 0 then 1 else 0)
      ~step:(fun ~round:_ ~node:_ st inbox ->
        match inbox with
        | (_, v) :: _ -> (st + (10 * v), [])
        | [] -> if st = 1 then (2, [ (1, 7) ]) else (st, []))
      ~active:(fun st -> st = 1)
      ~metrics:m ~label:"t" ()
  in
  check_int "receiver got it" 70 states.(1);
  check_bool "bounded rounds" true (Metrics.rounds m <= 3);
  check_int "one message" 1 (Metrics.get m Messages)

let test_engine_round_limit_payload () =
  let sk = Generators.path 3 in
  let m = Metrics.create () in
  match
    E.run sk
      ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~node:_ () _ -> ((), []))
      ~active:(fun () -> true)
      ~max_rounds:7 ~metrics:m ~label:"spin" ()
  with
  | _ -> Alcotest.fail "expected Round_limit_exceeded"
  | exception Engine.Round_limit_exceeded { label; rounds; active_nodes } ->
      Alcotest.(check string) "label" "spin" label;
      check_int "rounds" 7 rounds;
      check_int "active nodes" 3 active_nodes

let test_engine_inbox_sorted_by_sender () =
  (* leaves of a star all message the hub in the same round: the hub must
     see them in ascending sender order regardless of delivery accidents *)
  let star = Digraph.create ~directed:false 6 (List.init 5 (fun i -> (0, i + 1, 1))) in
  let m = Metrics.create () in
  let seen = ref [] in
  ignore
    (E.run star
       ~init:(fun v -> v <> 0)
       ~step:(fun ~round:_ ~node st inbox ->
         if node = 0 && inbox <> [] then seen := inbox;
         if st && node <> 0 then (false, [ (0, node) ]) else (false, []))
       ~active:Fun.id ~metrics:m ~label:"t" ());
  Alcotest.(check (list (pair int int)))
    "ascending sender order"
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5) ]
    !seen

let test_engine_oversize_diagnostics () =
  (* bandwidth violations name the run, round, link, and measured size *)
  let module WMsg = struct
    type t = int

    let words m = m
  end in
  let module EW = Engine.Make (WMsg) in
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  Alcotest.check_raises "oversized"
    (Invalid_argument "Engine.run(t): round 0: node 0 -> 1: message of 7 words (cap 4)")
    (fun () ->
      ignore
        (EW.run sk
           ~init:(fun _ -> true)
           ~step:(fun ~round:_ ~node st _ ->
             if node = 0 && st then (false, [ (1, 7) ]) else (false, []))
           ~active:Fun.id ~metrics:m ~label:"t" ()))

let test_engine_timing_profile_pulses () =
  (* a timing dimension puts even a plain Engine.Make run on the
     virtual clock, and the α-synchronizer reproduces the sync run *)
  let g = Generators.k_tree ~seed:2 12 2 in
  let flood ?faults m =
    E.run g
      ~init:(fun v -> (if v = 0 then 0 else max_int), v = 0)
      ~step:(fun ~round:_ ~node (d, fresh) inbox ->
        let d' = List.fold_left (fun acc (_, x) -> min acc (x + 1)) d inbox in
        if fresh || d' < d then
          ((d', false), Array.to_list (Array.map (fun u -> (u, d')) (Digraph.neighbors g node)))
        else ((d', false), []))
      ~active:snd ?faults ~metrics:m ~label:"flood" ()
  in
  let m_sync = Metrics.create () and m_async = Metrics.create () in
  let sync = flood m_sync in
  let timed =
    flood m_async
      ~faults:
        (Fault.create ~seed:3
           (Fault.profile
              ~stragglers:[ Fault.straggle 4 ~from:1 ~until:6 ~factor:3 ]
              ~link_latency:2 ~skew:2 ()))
  in
  check_bool "sync outputs" true (sync = timed);
  check_int "sync rounds" (Metrics.rounds m_sync) (Metrics.rounds m_async);
  check_int "sync messages" (Metrics.get m_sync Messages) (Metrics.get m_async Messages);
  check_int "sync run does not pulse" 0 (Metrics.get m_sync Pulses);
  check_bool "timed run pulses" true (Metrics.get m_async Pulses > 0)

let test_engine_counts_words_and_delivered () =
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  ignore
    (E.run sk
       ~init:(fun v -> v = 0)
       ~step:(fun ~round:_ ~node st _ ->
         if node = 0 && st then (false, [ (1, 9) ]) else (false, []))
       ~active:Fun.id ~metrics:m ~label:"t" ());
  check_int "messages" 1 (Metrics.get m Messages);
  check_int "words" 1 (Metrics.get m Words);
  (* reliable links: everything sent is delivered *)
  check_int "delivered" 1 (Metrics.get m Delivered)

(* ------------------------------------------------------------------ *)
(* Audit mode *)

let test_audit_catches_unstable_words () =
  (* M.words must be a function of the message: the auditor measures each
     send twice and raises on disagreement *)
  let calls = ref 0 in
  let module Unstable = struct
    type t = unit

    let words () =
      incr calls;
      if !calls mod 2 = 0 then 2 else 1
  end in
  let module EU = Engine.Make (Unstable) in
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  check_bool "raises" true
    (try
       ignore
         (EU.run sk
            ~init:(fun v -> v = 0)
            ~step:(fun ~round:_ ~node st _ ->
              if node = 0 && st then (false, [ (1, ()) ]) else (false, []))
            ~active:Fun.id ~metrics:m ~label:"t" ());
       false
     with Engine.Audit_violation { round = 0; _ } -> true)

let test_audit_catches_inflight_mutation () =
  (* a sender that mutates a message after handing it to the network
     breaks the bandwidth model: the auditor re-measures at delivery *)
  let module RefMsg = struct
    type t = int ref

    let words m = !m
  end in
  let module ER = Engine.Make (RefMsg) in
  let sk = Generators.path 2 in
  let cell = ref 1 in
  let m = Metrics.create () in
  (* seed chosen so the adversary holds the copy back at least one round,
     leaving a window for the mutation below *)
  let faults = Fault.create ~seed:4 (Fault.profile ~max_delay:3 ()) in
  check_bool "raises" true
    (try
       ignore
         (ER.run sk
            ~init:(fun v -> v = 0)
            ~step:(fun ~round ~node st _ ->
              if node = 0 && round > 0 then cell := 3;
              if node = 0 && st then (false, [ (1, cell) ]) else (false, []))
            ~active:Fun.id ~faults ~max_rounds:50 ~metrics:m ~label:"t" ());
       false
     with Engine.Audit_violation _ -> true)

let test_audit_catches_metrics_drift () =
  (* a step function charging traffic counters mid-run corrupts the
     engine's accounting; the auditor reports it as drift *)
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  check_bool "raises" true
    (try
       ignore
         (E.run sk
            ~init:(fun v -> v = 0)
            ~step:(fun ~round:_ ~node st _ ->
              if node = 0 && st then Metrics.add_count m Messages 5;
              if node = 0 && st then (false, [ (1, 1) ]) else (false, []))
            ~active:Fun.id ~metrics:m ~label:"t" ());
       false
     with Engine.Audit_violation { round = 0; _ } -> true)

let test_audit_off_permits_drift () =
  (* the same drift with Engine.audit_enabled cleared (overriding the
     suite-wide setting) must pass: auditing is off for production runs *)
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  Engine.audit_enabled := false;
  Fun.protect ~finally:(fun () -> Engine.audit_enabled := true) (fun () ->
      ignore
        (E.run sk
           ~init:(fun v -> v = 0)
           ~step:(fun ~round:_ ~node st _ ->
             if node = 0 && st then Metrics.add_count m Messages 5;
             if node = 0 && st then (false, [ (1, 1) ]) else (false, []))
           ~active:Fun.id ~metrics:m ~label:"t" ()));
  check_int "extra charge kept" 6 (Metrics.get m Messages)

let test_audit_clean_under_faults () =
  (* drops, duplicates, delays, crashes: the conservation invariants hold
     on a healthy engine under an adversarial schedule *)
  let g = Generators.grid 6 6 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:29
      (Fault.profile ~drop:0.3 ~duplicate:0.25 ~max_delay:3
         ~crashes:[ Fault.crash 7 ~from:3 ~until:9 ]
         ())
  in
  let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
  check_bool "ran" true (t.Bfs_tree.dist.(0) = 0);
  check_int "conservation at rest" 0
    (Metrics.get m Messages + Metrics.get m Duplicated - Metrics.get m Delivered - Metrics.get m Dropped)

let prop_metrics_conservation =
  QCheck.Test.make
    ~name:"audit: messages + duplicated = delivered + dropped across fault profiles" ~count:30
    QCheck.(
      quad (int_range 0 1000) (int_range 5 24) (int_range 0 50) (int_range 0 2))
    (fun (seed, n, drop_pct, delay) ->
      let g = Generators.gnp_connected ~seed n 0.2 in
      let profile =
        Fault.profile ~drop:(float_of_int drop_pct /. 100.0) ~duplicate:0.25 ~max_delay:delay
          ()
      in
      let root = seed mod n in
      (* raw faulty run *)
      let m = Metrics.create () in
      ignore (Bfs_tree.build ~faults:(Fault.create ~seed:(seed + 17) profile) g ~root ~metrics:m);
      let raw_ok =
        Metrics.get m Messages + Metrics.get m Duplicated = Metrics.get m Delivered + Metrics.get m Dropped
      in
      (* same law through the reliable transport *)
      let mr = Metrics.create () in
      ignore
        (Bfs_tree.build
           ~faults:(Fault.create ~seed:(seed + 23) profile)
           ~reliable:true g ~root ~metrics:mr);
      let reliable_ok =
        Metrics.get mr Messages + Metrics.get mr Duplicated
        = Metrics.get mr Delivered + Metrics.get mr Dropped
      in
      raw_ok && reliable_ok)

(* ------------------------------------------------------------------ *)
(* Fault adversary *)

let drops_profile = Fault.profile ~drop:0.3 ~duplicate:0.2 ~max_delay:2 ()

let test_fault_profile_validation () =
  check_bool "negative delay rejected" true
    (try
       ignore (Fault.profile ~max_delay:(-1) ());
       false
     with Invalid_argument _ -> true);
  check_bool "drop=1 rejected" true
    (try
       ignore (Fault.profile ~drop:1.0 ());
       false
     with Invalid_argument _ -> true)

let test_fault_run_is_deterministic () =
  let g = Generators.grid 5 5 in
  let run () =
    let m = Metrics.create () in
    let faults = Fault.create ~seed:42 drops_profile in
    let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
    (t.Bfs_tree.dist, Metrics.get m Dropped, Metrics.get m Duplicated)
  in
  let d1, drops1, dups1 = run () in
  let d2, drops2, dups2 = run () in
  Alcotest.(check (array int)) "same distances" d1 d2;
  check_int "same drops" drops1 drops2;
  check_int "same duplicates" dups1 dups2;
  check_bool "drops fired" true (drops1 > 0);
  check_bool "duplicates fired" true (dups1 > 0)

let test_fault_raw_bfs_degrades () =
  (* without the transport, dropped offers can only lose relaxations, so
     every raw-faulty distance is >= the centralized one *)
  let g = Generators.grid 6 6 in
  let expected = Traversal.bfs_undirected g 0 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:7 (Fault.profile ~drop:0.5 ()) in
  let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
  Array.iteri
    (fun v d -> check_bool (Printf.sprintf "node %d not too close" v) true (d >= expected.(v)))
    t.Bfs_tree.dist;
  check_bool "drops fired" true (Metrics.get m Dropped > 0)

let test_fault_crash_stop_cannot_livelock () =
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:1
      (Fault.profile ~crashes:[ Fault.crash 1 ~from:5 ] ())
  in
  ignore
    (E.run sk
       ~init:(fun v -> v = 1)
       ~step:(fun ~round:_ ~node:_ st _ -> (st, []))
       ~active:Fun.id ~faults ~max_rounds:100 ~metrics:m ~label:"t" ());
  check_int "terminates at the crash, not max_rounds" 5 (Metrics.rounds m)

let test_fault_crash_partitions_raw_bfs () =
  (* path 0-1-2-3-4-5 with node 3 down during the whole flood: the offer
     from 2 dies exactly once, so everything past 3 stays unreachable *)
  let g = Generators.path 6 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:3
      (Fault.profile ~crashes:[ Fault.crash 3 ~from:0 ~until:50 ] ())
  in
  let t = Bfs_tree.build ~faults g ~root:0 ~metrics:m in
  check_int "before the crash" 2 t.Bfs_tree.dist.(2);
  check_int "behind the crash" Digraph.inf t.Bfs_tree.dist.(4);
  check_bool "delivery to the dead node was dropped" true (Metrics.get m Dropped > 0)

(* ------------------------------------------------------------------ *)
(* Reliable transport *)

module T = Transport.Make (IntMsg)

(* the transport checks its user's outbox with the engine's texts, under
   its own name: a non-neighbor, then one message per link per round *)
let test_transport_rejects_non_neighbor () =
  let sk = Generators.path 3 in
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Transport.run(t): round 0: node 0 sent to non-neighbor 2") (fun () ->
      ignore
        (T.run sk
           ~init:(fun _ -> true)
           ~step:(fun ~round:_ ~node st _ ->
             if node = 0 && st then (false, [ (2, 1) ]) else (false, []))
           ~active:Fun.id ~metrics:(Metrics.create ()) ~label:"t" ()))

let test_transport_rejects_duplicate_send () =
  let sk = Generators.path 3 in
  Alcotest.check_raises "duplicate send"
    (Invalid_argument "Transport.run(t): round 3: node 1 sent two messages to 2 in one round")
    (fun () ->
      ignore
        (T.run sk
           ~init:(fun _ -> true)
           ~step:(fun ~round ~node st _ ->
             (* one send per link in the earlier rounds is fine *)
             if node = 1 && round < 3 then (true, [ (2, round) ])
             else if node = 1 && st then (false, [ (0, 1); (2, 1); (2, 2) ])
             else (false, []))
           ~active:Fun.id ~metrics:(Metrics.create ()) ~label:"t" ()))

let test_transport_no_faults_exact () =
  let g = Generators.k_tree ~seed:9 40 3 in
  let m = Metrics.create () in
  let t = Bfs_tree.build ~reliable:true g ~root:0 ~metrics:m in
  Alcotest.(check (array int)) "distances" (Traversal.bfs_undirected g 0) t.Bfs_tree.dist;
  check_int "no drops" 0 (Metrics.get m Dropped);
  check_int "no retransmissions" 0 (Metrics.get m Retransmissions)

let test_transport_restores_bfs_under_drops () =
  let g = Generators.grid 6 6 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:5 drops_profile in
  let t = Bfs_tree.build ~faults ~reliable:true g ~root:0 ~metrics:m in
  Alcotest.(check (array int)) "exact despite faults" (Traversal.bfs_undirected g 0)
    t.Bfs_tree.dist;
  check_bool "faults actually fired" true (Metrics.get m Dropped > 0);
  check_bool "transport retransmitted" true (Metrics.get m Retransmissions > 0)

let test_transport_restores_bellman_ford () =
  let g = Generators.bidirect ~seed:3 ~max_weight:9 (Generators.k_tree ~seed:2 30 3) in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:11 drops_profile in
  let d = Bellman_ford.run ~faults ~reliable:true g ~source:0 ~metrics:m in
  Alcotest.(check (array int)) "matches dijkstra" (Shortest_path.dijkstra g 0) d;
  check_bool "retransmissions fired" true (Metrics.get m Retransmissions > 0)

let test_transport_restores_leader () =
  let g = Generators.k_tree ~seed:11 30 2 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:13 drops_profile in
  check_int "leader" 0 (Leader.elect ~faults ~reliable:true g ~metrics:m)

let test_transport_preserves_stream_order () =
  (* per-link FIFO: a pipelined stream arrives in order even when packets
     are dropped, duplicated, and delayed underneath *)
  let g = Generators.path 6 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let items = List.init 12 Fun.id in
  let faults = Fault.create ~seed:17 drops_profile in
  let got =
    Broadcast.stream_down ~faults ~reliable:true t ~items:(Array.of_list items) ~metrics:m
  in
  Array.iter (fun l -> Alcotest.(check (list int)) "items in order" items (Array.to_list l)) got

let test_transport_convergecast_under_faults () =
  let g = Generators.grid 4 4 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let values = Array.init 16 Fun.id in
  let faults = Fault.create ~seed:19 drops_profile in
  check_int "sum survives faults" 120
    (Broadcast.convergecast ~faults ~reliable:true t ~op:( + ) ~values ~metrics:m)

let test_transport_survives_crash_restart () =
  (* node 3 is down for the first 12 rounds; the transport retransmits
     across the outage, so BFS is still exact after the restart *)
  let g = Generators.path 6 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:23
      (Fault.profile ~crashes:[ Fault.crash 3 ~from:2 ~until:12 ] ())
  in
  let t = Bfs_tree.build ~faults ~reliable:true g ~root:0 ~metrics:m in
  Alcotest.(check (array int)) "exact across the outage" (Traversal.bfs_undirected g 0)
    t.Bfs_tree.dist;
  check_bool "outage forced retransmissions" true (Metrics.get m Retransmissions > 0)

let prop_transport_oracle_exact =
  QCheck.Test.make
    ~name:"BFS/SSSP/leader over transport = centralized oracles for any drop <= 0.5" ~count:20
    QCheck.(triple (int_range 0 1000) (int_range 6 20) (int_range 5 50))
    (fun (seed, n, drop_pct) ->
      let drop = float_of_int drop_pct /. 100.0 in
      let g = Generators.gnp_connected ~seed n 0.2 in
      let profile = Fault.profile ~drop ~duplicate:0.2 ~max_delay:2 () in
      let root = seed mod n in
      let m = Metrics.create () in
      let t =
        Bfs_tree.build ~faults:(Fault.create ~seed:(seed + 1) profile) ~reliable:true g ~root
          ~metrics:m
      in
      let bfs_ok = t.Bfs_tree.dist = Traversal.bfs_undirected g root in
      let gw = Generators.random_weights ~seed ~max_weight:9 g in
      let bf =
        Bellman_ford.run ~faults:(Fault.create ~seed:(seed + 2) profile) ~reliable:true gw
          ~source:root ~metrics:m
      in
      let bf_ok = bf = Shortest_path.dijkstra gw root in
      let leader_ok =
        Leader.elect ~faults:(Fault.create ~seed:(seed + 3) profile) ~reliable:true g ~metrics:m
        = 0
      in
      bfs_ok && bf_ok && leader_ok)

(* ------------------------------------------------------------------ *)
(* Crash-amnesia faults and the checkpoint/recovery layer *)

module Recovery = Repro_congest.Recovery

let test_metrics_recovery_counters () =
  let m = Metrics.create () in
  check_int "fresh checkpoints" 0 (Metrics.get m Checkpoints);
  check_int "fresh checkpoint words" 0 (Metrics.get m Checkpoint_words);
  check_int "fresh recoveries" 0 (Metrics.get m Recoveries);
  check_int "fresh resync rounds" 0 (Metrics.get m Resync_rounds);
  Metrics.add_count m Checkpoints 3;
  Metrics.add_count m Checkpoint_words 12;
  Metrics.add_count m Recoveries 2;
  Metrics.add_count m Resync_rounds 5;
  Metrics.add_count m Checkpoints 1;
  check_int "checkpoints" 4 (Metrics.get m Checkpoints);
  check_int "checkpoint words" 12 (Metrics.get m Checkpoint_words);
  check_int "recoveries" 2 (Metrics.get m Recoveries);
  check_int "resync rounds" 5 (Metrics.get m Resync_rounds);
  let b = Metrics.create () in
  Metrics.add_count b Checkpoints 6;
  Metrics.add_count b Checkpoint_words 8;
  Metrics.add_count b Recoveries 1;
  Metrics.add_count b Resync_rounds 7;
  Metrics.merge ~into:m b;
  check_int "merged checkpoints" 10 (Metrics.get m Checkpoints);
  check_int "merged checkpoint words" 20 (Metrics.get m Checkpoint_words);
  check_int "merged recoveries" 3 (Metrics.get m Recoveries);
  check_int "merged resync rounds" 12 (Metrics.get m Resync_rounds)

let test_fault_amnesia_requires_restart () =
  check_bool "amnesia crash-stop rejected" true
    (try
       ignore
         (Fault.profile ~crashes:[ Fault.crash 1 ~from:2 ~mode:Fault.Amnesia ] ());
       false
     with Invalid_argument _ -> true);
  (* with a restart round it is accepted *)
  ignore (Fault.profile ~crashes:[ Fault.crash 1 ~from:2 ~until:5 ~mode:Fault.Amnesia ] ())

let test_engine_amnesia_reinits_state () =
  (* node 1 counts the rounds it actually computed in; node 0 drives
     liveness for exactly 12 rounds. Freeze keeps node 1's pre-crash
     count across the outage; Amnesia loses it. *)
  let sk = Generators.path 2 in
  let run mode =
    let m = Metrics.create () in
    let faults =
      Fault.create ~seed:1 (Fault.profile ~crashes:[ Fault.crash 1 ~from:2 ~until:6 ~mode ] ())
    in
    let states =
      E.run sk
        ~init:(fun v -> (v = 0, 0))
        ~step:(fun ~round:_ ~node:_ (d, c) _ -> ((d, c + 1), []))
        ~active:(fun (d, c) -> d && c < 12)
        ~faults ~max_rounds:100 ~metrics:m ~label:"t" ()
    in
    snd states.(1)
  in
  (* node 1 is down for rounds 2..5, so it steps in rounds {0,1} u {6..11} *)
  check_int "freeze resumes pre-crash count" 8 (run Fault.Freeze);
  (* amnesia: the 2 pre-crash steps are wiped by the round-6 re-init *)
  check_int "amnesia restarts from init" 6 (run Fault.Amnesia)

let test_engine_amnesia_outage_keeps_run_alive () =
  (* every node quiesces after round 0 and node 1's restart is only due
     at round 5: the engine must keep the run alive through the outage so
     the restart (and its on_restart hook) actually executes *)
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:1
      (Fault.profile ~crashes:[ Fault.crash 1 ~from:1 ~until:5 ~mode:Fault.Amnesia ] ())
  in
  let states =
    E.run sk
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:_ st _ -> (st + 1, []))
      ~active:(fun st -> st < 1)
      ~faults
      ~on_restart:(fun ~round:_ ~node:_ -> 10)
      ~max_rounds:100 ~metrics:m ~label:"t" ()
  in
  (* node 1 stepped at round 0 (0 -> 1), was down 1..4, rebooted into the
     hook state at round 5 and stepped once more there (10 -> 11). Were
     the run to quiesce during the outage the restart would never apply
     and the state would still read 1. *)
  check_int "restart hook ran at the restart round" 11 states.(1);
  check_int "run stayed alive exactly through the restart round" 6 (Metrics.rounds m)

let amnesia_crash ?(from = 2) ?(until = 12) node =
  Fault.crash node ~from ~until ~mode:Fault.Amnesia

let test_transport_alone_loses_amnesia_state () =
  (* the gap Recovery exists to close: node 3 receives and acks the BFS
     frontier, then loses it to amnesia while its own offer to node 4 is
     still parked behind node 4's crash window. After node 3's reboot
     nobody ever resends — upstream was acked, node 3 came back empty —
     so everything behind it stays unreached. *)
  let g = Generators.path 6 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:23
      (Fault.profile
         ~crashes:
           [ Fault.crash 4 ~from:0 ~until:40; amnesia_crash 3 ~from:10 ~until:20 ]
         ())
  in
  let t = Bfs_tree.build ~faults ~reliable:true g ~root:0 ~metrics:m in
  check_int "knowledge behind the amnesia node is lost" Digraph.inf t.Bfs_tree.dist.(5)

let test_recovery_bfs_amnesia_exact () =
  let g = Generators.path 6 in
  let expected = Traversal.bfs_undirected g 0 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:23 (Fault.profile ~crashes:[ amnesia_crash 3 ] ()) in
  let t =
    Bfs_tree.build ~faults ~recovery:{ Recovery.checkpoint_every = 3 } g ~root:0 ~metrics:m
  in
  Alcotest.(check (array int)) "exact across the amnesia restart" expected t.Bfs_tree.dist;
  check_int "one recovery served" 1 (Metrics.get m Recoveries);
  check_bool "checkpoints written" true (Metrics.get m Checkpoints > 0);
  check_bool "resync window accounted" true (Metrics.get m Resync_rounds > 0)

let test_recovery_without_checkpoints_still_exact () =
  (* checkpointing disabled: restore falls back to init and the
     HELLO/RESYNC handshake alone recovers the lost frontier *)
  let g = Generators.grid 4 4 in
  let expected = Traversal.bfs_undirected g 0 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:7
      (Fault.profile ~crashes:[ amnesia_crash 5; amnesia_crash 10 ~from:4 ~until:9 ] ())
  in
  let t = Bfs_tree.build ~faults ~recovery:{ Recovery.checkpoint_every = 0 } g ~root:0 ~metrics:m in
  Alcotest.(check (array int)) "exact with resync only" expected t.Bfs_tree.dist;
  check_int "no checkpoints" 0 (Metrics.get m Checkpoints);
  check_int "two recoveries" 2 (Metrics.get m Recoveries)

let test_recovery_root_crash () =
  (* the root itself loses its memory; its init (d = 0) regenerates the
     flood, so the output is still exact *)
  let g = Generators.grid 4 4 in
  let expected = Traversal.bfs_undirected g 0 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:9 (Fault.profile ~crashes:[ amnesia_crash 0 ~from:1 ~until:7 ] ()) in
  let t =
    Bfs_tree.build ~faults ~recovery:{ Recovery.checkpoint_every = 2 } g ~root:0 ~metrics:m
  in
  Alcotest.(check (array int)) "exact after root amnesia" expected t.Bfs_tree.dist

let test_recovery_bellman_ford_amnesia () =
  let g = Generators.bidirect ~seed:3 ~max_weight:9 (Generators.k_tree ~seed:2 30 3) in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:11
      (Fault.profile ~drop:0.2 ~duplicate:0.1 ~max_delay:1
         ~crashes:[ amnesia_crash 4; amnesia_crash 17 ~from:6 ~until:20 ]
         ())
  in
  let d =
    Bellman_ford.run ~faults ~recovery:{ Recovery.checkpoint_every = 4 } g ~source:0 ~metrics:m
  in
  Alcotest.(check (array int)) "matches dijkstra" (Shortest_path.dijkstra g 0) d;
  check_int "recoveries" 2 (Metrics.get m Recoveries)

let test_recovery_flood_amnesia () =
  let g = Generators.cycle 10 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:5 (Fault.profile ~crashes:[ amnesia_crash 6 ~from:1 ~until:9 ] ()) in
  let got =
    Broadcast.flood ~faults ~recovery:{ Recovery.checkpoint_every = 2 } g ~root:3 ~value:99
      ~metrics:m
  in
  Array.iter (fun v -> check_int "all received" 99 v) got

let test_recovery_crash_free_zero_round_overhead () =
  (* acceptance criterion: with no crashes and checkpointing disabled the
     recovery layer must add zero rounds over the plain transport *)
  let g = Generators.k_tree ~seed:9 40 3 in
  let plain =
    let m = Metrics.create () in
    ignore (Bfs_tree.build ~reliable:true g ~root:0 ~metrics:m);
    Metrics.rounds m
  in
  let m = Metrics.create () in
  let t = Bfs_tree.build ~recovery:{ Recovery.checkpoint_every = 0 } g ~root:0 ~metrics:m in
  Alcotest.(check (array int)) "still exact" (Traversal.bfs_undirected g 0) t.Bfs_tree.dist;
  check_int "zero round overhead" plain (Metrics.rounds m);
  check_int "no checkpoints" 0 (Metrics.get m Checkpoints);
  check_int "no recoveries" 0 (Metrics.get m Recoveries);
  check_int "no resync rounds" 0 (Metrics.get m Resync_rounds)

(* the recovery layer checks its user's outbox like the engine and the
   transport, under its own name *)
module Sends_to_2 = Recovery.Make (struct
  module Msg = IntMsg

  type st = bool

  let init _ = true
  let step ~round:_ ~node st _ = if node = 0 && st then (false, [ (2, 1) ]) else (false, [])
  let active st = st
  let snapshot _ = [||]
  let restore ~node:_ _ = false
  let resync _ = None
end)

let test_recovery_rejects_non_neighbor () =
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Recovery.run(t): round 0: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sends_to_2.run (Generators.path 3) ~metrics:(Metrics.create ()) ~label:"t" ()))

let test_transport_watermark_dedup_exact () =
  (* satellite regression for the delivered-seq watermark: a pipelined
     stream under heavy duplication/delay still arrives exactly once and
     in order. (Memory is O(1) per link by construction: the watermark is
     a single integer where an unbounded seen-seq table used to grow.) *)
  let g = Generators.path 5 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let items = List.init 30 Fun.id in
  let faults = Fault.create ~seed:31 (Fault.profile ~duplicate:0.6 ~max_delay:4 ()) in
  let got =
    Broadcast.stream_down ~faults ~reliable:true t ~items:(Array.of_list items) ~metrics:m
  in
  Array.iter
    (fun l -> Alcotest.(check (list int)) "items exactly once, in order" items (Array.to_list l))
    got;
  check_bool "duplicates actually fired" true (Metrics.get m Duplicated > 0)

let prop_recovery_amnesia_oracle_exact =
  QCheck.Test.make
    ~name:
      "BFS/Bellman-Ford/flood under random amnesia schedules on partial k-trees = oracles"
    ~count:25
    QCheck.(
      quad (int_range 0 1000) (int_range 8 24) (int_range 2 3) (int_range 0 6))
    (fun (seed, n, k, interval) ->
      let g = Generators.partial_k_tree ~seed n k ~keep:0.6 in
      let rng = Random.State.make [| seed; 0xcafe |] in
      let crashes =
        List.init
          (1 + Random.State.int rng 3)
          (fun _ ->
            let node = Random.State.int rng n in
            let from = Random.State.int rng 7 in
            let until = from + 1 + Random.State.int rng 10 in
            Fault.crash node ~from ~until ~mode:Fault.Amnesia)
      in
      let profile = Fault.profile ~drop:0.1 ~duplicate:0.1 ~max_delay:1 ~crashes () in
      let recovery = { Recovery.checkpoint_every = interval } in
      let root = seed mod n in
      let m = Metrics.create () in
      let t =
        Bfs_tree.build ~faults:(Fault.create ~seed:(seed + 1) profile) ~recovery g ~root
          ~metrics:m
      in
      let bfs_ok = t.Bfs_tree.dist = Traversal.bfs_undirected g root in
      let gw = Generators.random_weights ~seed ~max_weight:9 g in
      let bf =
        Bellman_ford.run ~faults:(Fault.create ~seed:(seed + 2) profile) ~recovery gw
          ~source:root ~metrics:m
      in
      let bf_ok = bf = Shortest_path.dijkstra gw root in
      let fl =
        Broadcast.flood ~faults:(Fault.create ~seed:(seed + 3) profile) ~recovery g ~root
          ~value:4242 ~metrics:m
      in
      let flood_ok = Array.for_all (fun v -> v = 4242) fl in
      bfs_ok && bf_ok && flood_ok)

let prop_fault_adversary_deterministic =
  (* satellite: equal seed + profile drive byte-identical metrics across
     full transport runs (every engine here audits, so a plan-order
     change that skews RNG consumption surfaces as a counter drift) *)
  QCheck.Test.make ~name:"equal fault seeds give byte-identical metrics over Transport"
    ~count:25
    QCheck.(quad (int_range 0 1000) (int_range 6 20) (int_range 0 40) (int_range 0 2))
    (fun (seed, n, drop_pct, delay) ->
      let g = Generators.gnp_connected ~seed n 0.2 in
      let profile =
        Fault.profile ~drop:(float_of_int drop_pct /. 100.0) ~duplicate:0.2 ~max_delay:delay
          ~crashes:[ Fault.crash (seed mod n) ~from:2 ~until:8 ~mode:Fault.Amnesia ]
          ()
      in
      let root = (seed + 3) mod n in
      let observe fault_seed =
        let m = Metrics.create () in
        let t =
          Bfs_tree.build
            ~faults:(Fault.create ~seed:fault_seed profile)
            ~recovery:{ Recovery.checkpoint_every = 3 } g ~root ~metrics:m
        in
        ( t.Bfs_tree.dist,
          ( Metrics.rounds m, Metrics.get m Messages, Metrics.get m Words, Metrics.get m Delivered ),
          ( Metrics.get m Dropped, Metrics.get m Duplicated, Metrics.get m Retransmissions,
            Metrics.get m Recoveries ) )
      in
      let d1, a1, b1 = observe (seed + 17) in
      let d2, a2, b2 = observe (seed + 17) in
      let same = d1 = d2 && a1 = a2 && b1 = b2 in
      (* a different seed is consulted in the same plan order: the run
         still audits clean and conserves copies at rest *)
      let m3 = Metrics.create () in
      ignore
        (Bfs_tree.build
           ~faults:(Fault.create ~seed:(seed + 18) profile)
           ~recovery:{ Recovery.checkpoint_every = 3 } g ~root ~metrics:m3);
      let conserved =
        Metrics.get m3 Messages + Metrics.get m3 Duplicated = Metrics.get m3 Delivered + Metrics.get m3 Dropped
      in
      same && conserved)

(* ------------------------------------------------------------------ *)
(* BFS tree *)

let test_bfs_tree_grid () =
  let g = Generators.grid 5 6 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let expected = Traversal.bfs_undirected g 0 in
  Alcotest.(check (array int)) "distances match centralized BFS" expected t.Bfs_tree.dist;
  check_int "depth" 9 t.Bfs_tree.depth;
  check_int "root parent" 0 t.Bfs_tree.parent.(0);
  (* rounds proportional to depth *)
  check_bool "rounds ~ depth" true (Metrics.rounds m <= (3 * t.Bfs_tree.depth) + 5)

let test_bfs_tree_parents_consistent () =
  let g = Generators.k_tree ~seed:5 60 3 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:7 ~metrics:m in
  Array.iteri
    (fun v p ->
      if v <> 7 then begin
        check_bool "has parent" true (p >= 0);
        check_int "parent one closer" (t.Bfs_tree.dist.(v) - 1) t.Bfs_tree.dist.(p)
      end)
    t.Bfs_tree.parent

let prop_bfs_tree_matches_centralized =
  QCheck.Test.make ~name:"distributed BFS distances = centralized" ~count:30
    QCheck.(pair (int_range 0 500) (int_range 5 40))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.1 in
      let m = Metrics.create () in
      let t = Bfs_tree.build g ~root:(seed mod n) ~metrics:m in
      t.Bfs_tree.dist = Traversal.bfs_undirected g (seed mod n))

(* ------------------------------------------------------------------ *)
(* Broadcast primitives *)

let test_flood () =
  let g = Generators.cycle 10 in
  let m = Metrics.create () in
  let got = Broadcast.flood g ~root:3 ~value:99 ~metrics:m in
  Array.iter (fun v -> check_int "all received" 99 v) got

let test_convergecast_sum () =
  let g = Generators.grid 4 4 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let values = Array.init 16 Fun.id in
  check_int "sum" 120 (Broadcast.convergecast t ~op:( + ) ~values ~metrics:m)

let test_convergecast_single_node () =
  let g = Generators.path 1 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  check_int "singleton" 42 (Broadcast.convergecast t ~op:( + ) ~values:[| 42 |] ~metrics:m)

let test_stream_down_pipelines () =
  let g = Generators.path 10 in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  let before = Metrics.rounds m in
  let items = List.init 20 Fun.id in
  let got = Broadcast.stream_down t ~items:(Array.of_list items) ~metrics:m in
  Array.iter (fun l -> Alcotest.(check (list int)) "items in order" items (Array.to_list l)) got;
  let used = Metrics.rounds m - before in
  (* pipelining: depth 9 + 20 items, not depth * items *)
  check_bool "pipelined" true (used <= 9 + 20 + 3)

(* ------------------------------------------------------------------ *)
(* Leader election *)

let test_leader_is_min_id () =
  let g = Generators.k_tree ~seed:11 40 2 in
  let m = Metrics.create () in
  check_int "leader" 0 (Leader.elect g ~metrics:m)

(* ------------------------------------------------------------------ *)
(* Bellman-Ford *)

let test_bellman_ford_exact () =
  let g = Generators.bidirect ~seed:3 ~max_weight:9 (Generators.k_tree ~seed:2 40 3) in
  let m = Metrics.create () in
  let d = Bellman_ford.run g ~source:0 ~metrics:m in
  Alcotest.(check (array int)) "matches dijkstra" (Shortest_path.dijkstra g 0) d

let test_bellman_ford_undirected () =
  let g = Generators.random_weights ~seed:4 ~max_weight:7 (Generators.grid 4 5) in
  let m = Metrics.create () in
  let d = Bellman_ford.run g ~source:10 ~metrics:m in
  Alcotest.(check (array int)) "matches dijkstra" (Shortest_path.dijkstra g 10) d

let prop_bellman_ford =
  QCheck.Test.make ~name:"bellman-ford = dijkstra on random digraphs" ~count:25
    QCheck.(pair (int_range 0 500) (int_range 6 30))
    (fun (seed, n) ->
      let g =
        Generators.bidirect ~seed ~max_weight:12 (Generators.gnp_connected ~seed n 0.12)
      in
      let m = Metrics.create () in
      Bellman_ford.run g ~source:(seed mod n) ~metrics:m
      = Shortest_path.dijkstra g (seed mod n))

(* ------------------------------------------------------------------ *)
(* APSP / diameter baseline *)

let test_apsp_matches_bfs () =
  let g = Generators.grid 3 5 in
  let m = Metrics.create () in
  let d = Apsp.hop_distances g ~metrics:m in
  for v = 0 to Digraph.n g - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d" v)
      (Traversal.bfs_undirected g v) d.(v)
  done

let test_diameter_baseline () =
  let g = Generators.cycle 12 in
  let m = Metrics.create () in
  check_int "cycle diameter" 6 (Apsp.diameter g ~metrics:m)

let test_diameter_baseline_scales_linearly () =
  (* the baseline needs Omega(n) rounds even on low-treewidth graphs: this
     is the contrast side of the separation experiment E5b *)
  let rounds n =
    let g = Generators.apex_cliques ~cliques:(n / 4) ~size:4 in
    let m = Metrics.create () in
    ignore (Apsp.diameter g ~metrics:m);
    Metrics.rounds m
  in
  let r1 = rounds 40 and r2 = rounds 80 in
  check_bool "grows at least linearly" true (r2 >= (3 * r1) / 2)


(* ------------------------------------------------------------------ *)
(* Message-level connected components *)

let test_flood_components_match_centralized () =
  let g = Generators.grid 5 5 in
  let mask = Array.init 25 (fun v -> v mod 7 <> 3) in
  let m = Metrics.create () in
  let labels = Repro_congest.Components.flood_labels g ~mask ~metrics:m in
  let expected, _ = Traversal.components_mask g mask in
  for u = 0 to 24 do
    for v = 0 to 24 do
      if mask.(u) && mask.(v) then
        check_bool "same grouping" true
          ((labels.(u) = labels.(v)) = (expected.(u) = expected.(v)))
      else if not mask.(u) then check_int "outside mask" (-1) labels.(u)
    done
  done;
  check_bool "rounds measured" true (Metrics.rounds m > 0)

let prop_flood_components =
  QCheck.Test.make ~name:"flooded components = centralized components" ~count:30
    QCheck.(pair (int_range 0 500) (int_range 6 30))
    (fun (seed, n) ->
      let seed = abs seed and n = max 6 (min 30 n) in
      let g = Generators.gnp_connected ~seed n 0.15 in
      let rng = Random.State.make [| seed; 9 |] in
      let mask = Array.init n (fun _ -> Random.State.float rng 1.0 > 0.3) in
      let m = Metrics.create () in
      let labels = Repro_congest.Components.flood_labels g ~mask ~metrics:m in
      let expected, _ = Traversal.components_mask g mask in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if mask.(u) && mask.(v)
             && (labels.(u) = labels.(v)) <> (expected.(u) = expected.(v))
          then ok := false
        done
      done;
      !ok)


(* ------------------------------------------------------------------ *)
(* Multi-instance BFS (Theorem 6 at message level) *)

let test_multi_bfs_exact () =
  let g = Generators.k_tree ~seed:13 40 3 in
  let roots = [ 0; 7; 19; 33 ] in
  let m = Metrics.create () in
  let r = Repro_congest.Multi_bfs.run g ~roots ~metrics:m () in
  List.iteri
    (fun i root ->
      Alcotest.(check (array int))
        (Printf.sprintf "instance %d" i)
        (Traversal.bfs_undirected g root)
        r.Repro_congest.Multi_bfs.dist.(i))
    roots

let test_multi_bfs_scheduling_beats_sequential () =
  let g = Generators.grid 8 8 in
  let d = Traversal.diameter g in
  let k = 16 in
  let roots = List.init k (fun i -> (i * 4) mod 64) in
  let m = Metrics.create () in
  let r = Repro_congest.Multi_bfs.run g ~roots ~seed:3 ~metrics:m () in
  (* Theorem 6 shape: ~ D + k, far below the sequential k * D *)
  check_bool "near dilation + congestion" true
    (r.Repro_congest.Multi_bfs.rounds <= 4 * (d + k));
  check_bool "beats sequential" true (r.Repro_congest.Multi_bfs.rounds < k * d)

let test_diameter_two_approx_bounds () =
  List.iter
    (fun g ->
      let m = Metrics.create () in
      let approx = Apsp.diameter_two_approx g ~metrics:m in
      let exact = Traversal.diameter g in
      check_bool "lower bound" true (approx <= exact);
      check_bool "within factor 2" true (exact <= 2 * approx);
      (* O(D) rounds, not Omega(n) *)
      check_bool "cheap" true (Metrics.rounds m <= (6 * exact) + 10))
    [ Generators.cycle 20; Generators.grid 5 5; Generators.k_tree ~seed:3 50 3 ]

(* ------------------------------------------------------------------ *)
(* Round-count regression guard: exact rounds and messages on one fixed
   seeded partial k-tree. Fault-free runs are fully deterministic, so
   any drift here means the engine's round structure (or an algorithm's
   communication pattern) changed — bump deliberately, not silently. *)

let test_round_count_regression_guard () =
  let g = Generators.partial_k_tree ~seed:11 32 3 ~keep:0.6 in
  let gw = Generators.random_weights ~seed:11 ~max_weight:9 g in
  let m = Metrics.create () in
  let t = Bfs_tree.build g ~root:0 ~metrics:m in
  check_int "bfs-tree rounds" 6 (Metrics.rounds m);
  check_int "bfs-tree messages" 128 (Metrics.get m Messages);
  check_int "bfs-tree depth" 4 t.Bfs_tree.depth;
  let m = Metrics.create () in
  let (_ : int array) = Bellman_ford.run gw ~source:0 ~metrics:m in
  check_int "bellman-ford rounds" 8 (Metrics.rounds m);
  check_int "bellman-ford messages" 237 (Metrics.get m Messages);
  let m = Metrics.create () in
  let (_ : int array) = Broadcast.flood g ~root:0 ~value:7 ~metrics:m in
  check_int "flood rounds" 6 (Metrics.rounds m);
  check_int "flood messages" 128 (Metrics.get m Messages)

(* ------------------------------------------------------------------ *)
(* Partitions, payload corruption, transport integrity, detection *)

module Detector = Repro_congest.Detector

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_partition_profile_validation () =
  let prof ps () = Fault.profile ~partitions:ps () in
  check_bool "empty links cut" true
    (raises_invalid (prof [ Fault.partition ~from:0 (Fault.Links []) ]));
  check_bool "empty vertex cut" true
    (raises_invalid (prof [ Fault.partition ~from:0 (Fault.Around []) ]));
  check_bool "self-loop link" true
    (raises_invalid (prof [ Fault.partition ~from:0 (Fault.Links [ (3, 3) ]) ]));
  check_bool "negative from" true
    (raises_invalid (prof [ Fault.partition ~from:(-1) (Fault.Around [ 0 ]) ]));
  check_bool "heal before start" true
    (raises_invalid (prof [ Fault.partition ~from:5 ~heal:5 (Fault.Around [ 0 ]) ]));
  check_bool "corrupt outside [0,1)" true
    (raises_invalid (fun () -> Fault.profile ~corrupt:1.0 ()))

let test_partition_semantics () =
  let f =
    Fault.create ~seed:1
      (Fault.profile
         ~partitions:
           [
             Fault.partition ~from:3 ~heal:8 (Fault.Links [ (0, 1) ]);
             Fault.partition ~from:2 (Fault.Around [ 4 ]);
           ]
         ())
  in
  (* healing link cut: down only inside [from, heal), both directions *)
  check_bool "before window" false (Fault.link_down f ~round:2 ~src:0 ~dst:1);
  check_bool "inside window" true (Fault.link_down f ~round:3 ~src:0 ~dst:1);
  check_bool "inside window, reverse" true (Fault.link_down f ~round:7 ~src:1 ~dst:0);
  check_bool "healed" false (Fault.link_down f ~round:8 ~src:0 ~dst:1);
  check_bool "healing cut is not severed" false (Fault.severed f ~src:0 ~dst:1);
  (* non-healing vertex cut: every link at the node, forever *)
  check_bool "vertex cut out" true (Fault.link_down f ~round:10 ~src:4 ~dst:2);
  check_bool "vertex cut in" true (Fault.link_down f ~round:10 ~src:2 ~dst:4);
  check_bool "vertex cut severed" true (Fault.severed f ~src:7 ~dst:4);
  check_bool "other links untouched" false (Fault.link_down f ~round:10 ~src:0 ~dst:2)

let test_corruption_rejected_never_accepted () =
  (* every corrupted copy the adversary delivers is rejected by the
     transport checksum and repaired by retransmission: zero garbled
     payloads accepted, output exact *)
  let g = Generators.partial_k_tree ~seed:9 32 2 ~keep:0.7 in
  let m = Metrics.create () in
  let faults = Fault.create ~seed:2 (Fault.profile ~corrupt:0.25 ()) in
  let t = Bfs_tree.build ~faults ~reliable:true g ~root:0 ~metrics:m in
  check_bool "exact under corruption" true (t.Bfs_tree.dist = Traversal.bfs_undirected g 0);
  check_bool "adversary actually corrupted" true (Metrics.get m Corrupted > 0);
  check_int "every corrupted copy rejected" (Metrics.get m Corrupted) (Metrics.get m Rejected);
  check_bool "repaired by retransmission" true (Metrics.get m Retransmissions > 0)

let retransmit_schedule ~jitter_seed ~fault_seed =
  let g = Generators.path 4 in
  let sched = ref [] in
  let saved = !Engine.trace_sink in
  Engine.trace_sink :=
    Repro_obs.Sink.make (function
      | Repro_obs.Event.Retransmit { round; src; dst; seq } ->
          sched := (round, src, dst, seq) :: !sched
      | _ -> ());
  Fun.protect
    ~finally:(fun () -> Engine.trace_sink := saved)
    (fun () ->
      let m = Metrics.create () in
      let faults = Fault.create ~seed:fault_seed (Fault.profile ~drop:0.4 ()) in
      let t =
        Bfs_tree.build_certified ~faults ~jitter_seed g ~root:0 ~metrics:m |> fst
      in
      check_bool "exact" true (t.Bfs_tree.dist = Traversal.bfs_undirected g 0);
      List.rev !sched)

let test_retransmit_schedule_deterministic () =
  (* same fault seed + same jitter seed => byte-identical retransmit
     schedule (replay depends on this); jitter is pure, not ambient *)
  let a = retransmit_schedule ~jitter_seed:3 ~fault_seed:11 in
  let b = retransmit_schedule ~jitter_seed:3 ~fault_seed:11 in
  check_bool "schedule nonempty" true (a <> []);
  check_bool "identical schedule" true (a = b)

let test_retransmit_schedule_pinned () =
  (* regression pin: the exact (round, src, dst, seq) retransmit
     schedule for one fixed scenario. A change here means the backoff
     or jitter arithmetic changed — old recorded traces will no longer
     replay; bump PINNED deliberately if that is intended. *)
  let pinned =
    [
      (4, 0, 1, 0); (4, 1, 0, 0); (8, 1, 2, 1); (8, 2, 1, 1); (8, 2, 3, 1); (8, 3, 2, 1);
      (12, 0, 1, 0); (14, 1, 0, 0); (16, 1, 2, 1); (18, 0, 1, 1); (18, 2, 1, 1);
      (18, 2, 3, 1);
    ]
  in
  let got = retransmit_schedule ~jitter_seed:1 ~fault_seed:5 in
  check_bool "long enough to pin" true (List.length got > 12);
  check_bool "pinned schedule prefix" true (List.filteri (fun i _ -> i < 12) got = pinned)

let test_retry_cap_declares_dead_link_and_terminates () =
  (* a never-healing cut cannot be retransmitted through: the transport
     must give up after max_retries, declare the link dead, and let the
     run terminate instead of backing off forever *)
  let g = Generators.grid 3 3 in
  let m = Metrics.create () in
  let faults =
    Fault.create ~seed:3
      (Fault.profile ~partitions:[ Fault.partition ~from:0 (Fault.Around [ 4 ]) ] ())
  in
  let t, v = Bfs_tree.build_certified ~faults ~max_retries:4 g ~root:0 ~metrics:m in
  check_bool "dead links declared" true (Metrics.get m Link_failures > 0);
  check_bool "terminates quickly at a small cap" true (Metrics.rounds m < 700);
  check_bool "centre unreached" true (t.Bfs_tree.dist.(4) >= Digraph.inf);
  match v with
  | Detector.Complete -> Alcotest.fail "cut must yield a Partial verdict"
  | Detector.Partial { reachable; _ } ->
      check_bool "verdict matches oracle" true
        (reachable = Detector.oracle ~faults g ~root:0)

let test_detector_complete_when_fault_free () =
  let g = Generators.partial_k_tree ~seed:13 24 2 ~keep:0.7 in
  let m = Metrics.create () in
  let t, v = Bfs_tree.build_certified g ~root:0 ~metrics:m in
  check_bool "exact" true (t.Bfs_tree.dist = Traversal.bfs_undirected g 0);
  check_bool "complete" true (v = Detector.Complete);
  check_int "no suspicions" 0 (Metrics.get m Suspicions)

let test_detector_latency_within_bound () =
  (* a link severed from round 0 must be suspected within timeout
     (default 3 x period) rounds of the start *)
  let g = Generators.grid 4 4 in
  let faults =
    Fault.create ~seed:4
      (Fault.profile ~partitions:[ Fault.partition ~from:0 (Fault.Around [ 5 ]) ] ())
  in
  let first = ref max_int in
  let saved = !Engine.trace_sink in
  Engine.trace_sink :=
    Repro_obs.Sink.make (function
      | Repro_obs.Event.Suspect { round; _ } -> if round < !first then first := round
      | _ -> ());
  Fun.protect
    ~finally:(fun () -> Engine.trace_sink := saved)
    (fun () ->
      let period = 2 in
      let m = Metrics.create () in
      let _, v =
        Bfs_tree.build_certified ~faults ~period ~max_retries:4 g ~root:0 ~metrics:m
      in
      check_bool "suspected at all" true (!first < max_int);
      check_bool "within 3 x period of the cut" true (!first <= 3 * period);
      match v with
      | Detector.Complete -> Alcotest.fail "cut must yield a Partial verdict"
      | Detector.Partial { reachable; suspected } ->
          check_bool "verdict matches oracle" true
            (reachable = Detector.oracle ~faults g ~root:0);
          check_bool "suspicions recorded" true (suspected <> []))

let test_deadline_cuts_chronic_straggler () =
  (* deadline-paced degraded mode, end to end: a permanently slowed
     node holds its neighbors' pulse gates open until they strike it
     out, the copies dropped on the cut links starve the heartbeat
     detector into suspecting it, and the certified re-run excises
     exactly the chronic straggler — no cascade onto healthy nodes *)
  let g = Generators.k_tree ~seed:5 24 2 in
  let saved = !Repro_congest.Async_engine.deadline in
  Repro_congest.Async_engine.deadline := 4;
  Fun.protect ~finally:(fun () -> Repro_congest.Async_engine.deadline := saved)
  @@ fun () ->
  let faults =
    Fault.create ~seed:1
      (Fault.profile ~stragglers:[ Fault.straggle 7 ~from:2 ~factor:40 ] ())
  in
  let m = Metrics.create () in
  let t, v = Bfs_tree.build_certified ~faults g ~root:0 ~metrics:m in
  check_bool "ran on the virtual clock" true (Metrics.get m Pulses > 0);
  check_bool "straggles charged" true (Metrics.get m Straggles > 0);
  let expected = Array.init (Digraph.n g) (fun v -> v <> 7) in
  (match v with
  | Detector.Complete -> Alcotest.fail "chronic straggler must yield Partial"
  | Detector.Partial { reachable; suspected } ->
      check_bool "exactly the straggler excised" true (reachable = expected);
      check_bool "suspicions recorded" true (suspected <> []));
  let pruned =
    Array.to_list (Digraph.edges g)
    |> List.filter (fun (e : Digraph.edge) -> e.src <> 7 && e.dst <> 7)
    |> List.map (fun (e : Digraph.edge) -> (e.src, e.dst, e.weight, e.label))
    |> Digraph.create_labeled ~directed:(Digraph.directed g) (Digraph.n g)
  in
  let want = Traversal.bfs_undirected pruned 0 in
  Array.iteri
    (fun i r -> if r then check_int (Printf.sprintf "dist %d" i) want.(i) t.Bfs_tree.dist.(i))
    expected

let test_single_cut_drops_copies () =
  (* on a 3-node path only the middle node has the two eligible
     neighbors striking needs, so the chronic straggler at one end is
     the one pair ever cut: once it is, its copies to the middle node
     drop on arrival, the only drops of this fault-free-link run *)
  let g = Generators.path 3 in
  let saved = !Async_engine.deadline in
  Async_engine.deadline := 4;
  Fun.protect ~finally:(fun () -> Async_engine.deadline := saved) @@ fun () ->
  let faults =
    Fault.create ~seed:1
      (Fault.profile ~stragglers:[ Fault.straggle 2 ~from:2 ~factor:40 ] ())
  in
  let sends =
    Array.init 3 (fun v -> List.map (fun u -> (u, v)) (Array.to_list (Digraph.neighbors g v)))
  in
  let m = Metrics.create () in
  ignore
    (E.run g ~faults
       ~init:(fun _ -> 0)
       ~step:(fun ~round:_ ~node k _ -> (k + 1, if k < 30 then sends.(node) else []))
       ~active:(fun k -> k < 30)
       ~metrics:m ~label:"t" ());
  check_bool "the straggler's copies dropped" true (Metrics.get m Dropped > 0)

let test_detector_rejects_non_neighbor () =
  let module D = Detector.Make (IntMsg) in
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Detector(t): 2 is not a neighbor of 0") (fun () ->
      ignore
        (D.run (Generators.path 3)
           ~init:(fun _ -> true)
           ~step:(fun ~round:_ ~node ~suspected st _ ->
             if node = 0 && st then ignore (suspected 2);
             (false, []))
           ~active:Fun.id ~metrics:(Metrics.create ()) ~label:"t" ()))

let test_specs_parse_to_values () =
  let parses parse s want =
    match parse s with
    | Error e -> Alcotest.failf "%S: %s" s e
    | Ok v -> check_bool (Printf.sprintf "%S parses to its value" s) true (v = want)
  in
  let crash = parses Fault.parse_crash in
  crash "7:3" (Fault.crash 7 ~from:3);
  crash "7:3:12" (Fault.crash 7 ~from:3 ~until:12);
  crash "0:0:5:freeze" (Fault.crash 0 ~from:0 ~until:5 ~mode:Fault.Freeze);
  crash "9:2:14:amnesia" (Fault.crash 9 ~from:2 ~until:14 ~mode:Fault.Amnesia);
  let partition = parses Fault.parse_partition in
  partition "0-1:3" (Fault.partition ~from:3 (Fault.Links [ (0, 1) ]));
  partition "0-1,2-3:0:9" (Fault.partition ~from:0 ~heal:9 (Fault.Links [ (0, 1); (2, 3) ]));
  partition "@4:2" (Fault.partition ~from:2 (Fault.Around [ 4 ]));
  partition "@4,5,6:1:7" (Fault.partition ~from:1 ~heal:7 (Fault.Around [ 4; 5; 6 ]));
  partition "1-2:0" (Fault.partition ~from:0 (Fault.Links [ (1, 2) ]));
  (* permanent stall, bounded stall, permanent slowdown, bounded slowdown *)
  let straggle = parses Fault.parse_straggle in
  straggle "7:3" (Fault.straggle 7 ~from:3);
  straggle "7:3:12" (Fault.straggle 7 ~from:3 ~until:12);
  straggle "5:2::4" (Fault.straggle 5 ~from:2 ~factor:4);
  straggle "5:2:9:6" (Fault.straggle 5 ~from:2 ~until:9 ~factor:6)

let test_spec_errors_name_field_and_grammar () =
  let fails_with parse grammar s want =
    match parse s with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" s
    | Error e -> Alcotest.(check string) (Printf.sprintf "%S error" s) (want ^ grammar) e
  in
  let crash =
    fails_with Fault.parse_crash
      "; expected NODE:FROM[:UNTIL[:MODE]] with MODE in {freeze, amnesia}"
  in
  crash "x:3" {|field 1 (NODE) "x" is not an integer|};
  crash "4" "1 field(s), want 2-4";
  crash "4:1:z" {|field 3 (UNTIL) "z" is not an integer|};
  crash "4:2:9:melt" {|field 4 (MODE) "melt" is not a crash mode|};
  let partition =
    fails_with Fault.parse_partition
      "; expected CUT:FROM[:HEAL] with CUT either links u-v[,u-v...] or a vertex cut \
       @n[,n...]"
  in
  partition "0-1" "1 field(s), want 2-3";
  partition ":4" {|field 1 (CUT) "" is empty|};
  partition "0x1:4" {|field 1 (CUT) "0x1" has malformed link "0x1" (want u-v)|};
  partition "0-a:4" {|field 1 (CUT) "0-a" has non-integer link "0-a"|};
  partition "@a,2:4" {|field 1 (CUT) "@a,2" has non-integer node "a"|};
  partition "0-1:2:x" {|field 3 (HEAL) "x" is not an integer|};
  let straggle =
    fails_with Fault.parse_straggle
      "; expected NODE:FROM[:UNTIL[:FACTOR]] (FACTOR 0 or omitted = stall, >= 2 = \
       slowdown; empty UNTIL = forever)"
  in
  straggle "x:3" {|field 1 (NODE) "x" is not an integer|};
  straggle "4" "1 field(s), want 2-4";
  straggle "4:1:z" {|field 3 (UNTIL) "z" is not an integer|};
  straggle "4:2:9:fast" {|field 4 (FACTOR) "fast" is not an integer|}

(* post-heal exactness: a partition that fully heals, plus drop/dup/
   delay/corruption, must leave no trace — outputs byte-identical to
   the fault-free run, message accounting conserved, and no corrupted
   payload ever accepted. [healed_partition_run] returns whether the
   BFS distances are exact, and the run's metrics. *)
let healed_partition_run (seed, n, drop_pct, corrupt_pct) =
  let g = Generators.partial_k_tree ~seed n 2 ~keep:0.7 in
  let profile =
    Fault.profile
      ~drop:(float_of_int drop_pct /. 100.0)
      ~corrupt:(float_of_int corrupt_pct /. 100.0)
      ~duplicate:0.1 ~max_delay:2
      ~partitions:
        [
          Fault.partition ~from:2 ~heal:(12 + (seed mod 9)) (Fault.Around [ seed mod n ]);
          Fault.partition ~from:0 ~heal:6 (Fault.Links [ (seed mod n, (seed + 1) mod n) ]);
        ]
      ()
  in
  let root = (seed + 1) mod n in
  let m = Metrics.create () in
  let t =
    Bfs_tree.build ~faults:(Fault.create ~seed:(seed + 31) profile) ~reliable:true g ~root
      ~metrics:m
  in
  (t.Bfs_tree.dist = Traversal.bfs_undirected g root, m)

let prop_healed_partition_exact =
  QCheck.Test.make ~name:"healed partition + corruption leaves no trace" ~count:25
    ~long_factor:400
    QCheck.(quad (int_range 0 1000) (int_range 8 24) (int_range 0 30) (int_range 0 25))
    (fun case ->
      let exact, m = healed_partition_run case in
      exact
      && Metrics.get m Messages + Metrics.get m Duplicated
         = Metrics.get m Delivered + Metrics.get m Dropped
      && Metrics.get m Corrupted = Metrics.get m Rejected
      && Metrics.get m Link_failures = 0)

let test_nack_keeps_healed_link_alive () =
  (* regression pin for the retry budget: in this lossy, corrupting run
     peers keep NACKing garbled packets. Each intact NACK proves the
     peer reachable and refills the budget; counting NACK-triggered
     fast retransmits against it declared a delivering link dead. *)
  let exact, m = healed_partition_run (75, 15, 27, 19) in
  check_bool "exact BFS distances" true exact;
  check_bool "peer NACKed corrupted packets" true (Metrics.get m Rejected > 0);
  check_int "no link declared dead" 0 (Metrics.get m Link_failures)

(* the shared inbox order is the stable sort by sender: (sender,
   position) pairs with repeated senders show stability, and the
   strictly descending lists consing builds take the reversal path *)
let prop_sort_inbox_is_stable_sort =
  QCheck.Test.make ~name:"sort_inbox = stable sort by sender" ~count:500
    QCheck.(pair bool (list_of_size Gen.(0 -- 12) (int_bound 6)))
    (fun (descending, senders) ->
      let senders =
        if descending then List.sort_uniq (fun a b -> Int.compare b a) senders else senders
      in
      let inbox = List.mapi (fun i s -> (s, i)) senders in
      Engine.sort_inbox inbox
      = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) inbox)

(* The boxed-pair binary heap [Pqueue] used to be, kept as the
   reference: the parallel-array heap must make the same sift
   comparisons, so it pops the same (prio, value) sequence, ties
   included. *)
module Pair_heap = struct
  type 'a t = { mutable heap : (int * 'a) array; mutable size : int }

  let create () = { heap = [||]; size = 0 }

  let rec sift_up heap i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst heap.(i) < fst heap.(parent) then begin
        let tmp = heap.(i) in
        heap.(i) <- heap.(parent);
        heap.(parent) <- tmp;
        sift_up heap parent
      end
    end

  let rec sift_down heap size i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < size && fst heap.(l) < fst heap.(!smallest) then smallest := l;
    if r < size && fst heap.(r) < fst heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      let tmp = heap.(i) in
      heap.(i) <- heap.(!smallest);
      heap.(!smallest) <- tmp;
      sift_down heap size !smallest
    end

  let push q prio x =
    let entry = (prio, x) in
    if q.size = Array.length q.heap then begin
      let nheap = Array.make (max 8 (2 * q.size)) entry in
      Array.blit q.heap 0 nheap 0 q.size;
      q.heap <- nheap
    end;
    q.heap.(q.size) <- entry;
    q.size <- q.size + 1;
    sift_up q.heap (q.size - 1)

  let pop_min q =
    if q.size = 0 then raise Not_found;
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q.heap q.size 0
    end;
    top
end

module Pqueue = Repro_graph.Pqueue

let prop_pqueue_matches_pair_heap =
  QCheck.Test.make ~name:"Pqueue pops as the pair heap did" ~count:300
    (* [Some p] pushes priority [p] (few values, so ties abound), [None] pops *)
    QCheck.(list_of_size Gen.(0 -- 200) (option (int_bound 8)))
    (fun ops ->
      let q = Pqueue.create () and r = Pair_heap.create () in
      let pop pop_min q = match pop_min q with x -> Some x | exception Not_found -> None in
      List.for_all Fun.id
        (List.mapi
           (fun i op ->
             match op with
             | Some p ->
                 Pqueue.push q p i;
                 Pair_heap.push r p i;
                 Pqueue.length q = r.Pair_heap.size
             | None -> pop Pqueue.pop_min q = pop Pair_heap.pop_min r)
           ops))

(* The list-based stream step [Broadcast.stream_down] used to run, kept
   as the reference: a queue consumed from its head (and appended to
   with [@]) and a received log consed in reverse. The int buffer that
   replaced both must receive, forward and charge exactly as this did. *)
module Stream_ref = struct
  module Word = struct
    type t = int

    let words _ = 1
  end

  module E = Engine.Make (Word)
  module T = Transport.Make (Word)

  type state = { queue : int list; got : int list }

  let run ?faults ~reliable tree ~items ~metrics =
    let n = Array.length tree.Bfs_tree.parent in
    let children = Array.make n [] in
    Array.iteri
      (fun u p -> if p >= 0 && u <> p then children.(p) <- u :: children.(p))
      tree.Bfs_tree.parent;
    let tree_edges = ref [] in
    Array.iteri
      (fun u p -> if p >= 0 && u <> p then tree_edges := (u, p, 1) :: !tree_edges)
      tree.Bfs_tree.parent;
    let tree_graph = Digraph.create ~directed:false n !tree_edges in
    let step ~round:_ ~node st inbox =
      match (st.queue, inbox) with
      | [], [ (_, v) ] ->
          ({ queue = []; got = v :: st.got }, List.map (fun c -> (c, v)) children.(node))
      | _ -> (
          let st =
            List.fold_left
              (fun st (_, v) -> { queue = st.queue @ [ v ]; got = v :: st.got })
              st inbox
          in
          match st.queue with
          | [] -> (st, [])
          | item :: rest ->
              ({ st with queue = rest }, List.map (fun c -> (c, item)) children.(node)))
    in
    let init v =
      if v = tree.Bfs_tree.root then { queue = items; got = List.rev items }
      else { queue = []; got = [] }
    in
    let active st = st.queue <> [] in
    let states =
      if reliable then T.run tree_graph ?faults ~init ~step ~active ~metrics ~label:"stream" ()
      else E.run tree_graph ?faults ~init ~step ~active ~metrics ~label:"stream" ()
    in
    Array.map (fun st -> List.rev st.got) states
end

type stream_faults = No_faults | Lossy | Amnesia

(* A case: a path or a random k-tree, a root, 0-40 items, a fault mode
   and a transport switch. [Lossy] drops, duplicates and delays raw
   copies; [Amnesia] restarts a non-root node with no memory while the
   stream is passing through. *)
let arbitrary_stream_case =
  let open QCheck in
  let gen =
    Gen.(
      map
        (fun ((seed, ktree, n), (items, mode, reliable)) ->
          (seed, ktree, n, items, mode, reliable))
        (pair
           (triple (int_range 0 1000) bool (int_range 1 24))
           (triple (int_range 0 40) (oneofl [ No_faults; Lossy; Amnesia ]) bool)))
  in
  let print (seed, ktree, n, items, mode, reliable) =
    Printf.sprintf "seed %d, %s n=%d, %d items, %s%s" seed
      (if ktree then "k-tree" else "path")
      n items
      (match mode with No_faults -> "no faults" | Lossy -> "lossy" | Amnesia -> "amnesia")
      (if reliable then ", reliable" else "")
  in
  make ~print gen

let stream_case_faults ~seed ~n ~root ~items mode =
  let rng = Random.State.make [| seed; 0x57 |] in
  match mode with
  | No_faults -> None
  | Lossy ->
      let pct k = float_of_int (Random.State.int rng k) /. 100.0 in
      Some
        (Fault.profile ~drop:(pct 30) ~duplicate:(pct 40) ~max_delay:(Random.State.int rng 4) ())
  | Amnesia when n = 1 -> None
  | Amnesia ->
      let node = (root + 1 + Random.State.int rng (n - 1)) mod n in
      let from = 1 + Random.State.int rng (n + items + 1) in
      let until = from + 1 + Random.State.int rng 8 in
      Some (Fault.profile ~crashes:[ amnesia_crash node ~from ~until ] ())

let prop_stream_down_matches_list_model =
  QCheck.Test.make ~name:"stream_down = list-based stream model" ~count:300
    ~long_factor:50 arbitrary_stream_case
    (fun (seed, ktree, n, k, mode, reliable) ->
      let g = if ktree && n > 3 then Generators.k_tree ~seed n 3 else Generators.path n in
      let root = seed mod n in
      let tree = Bfs_tree.build g ~root ~metrics:(Metrics.create ()) in
      let items = List.init k (fun i -> (i * 7919) + seed) in
      let profile = stream_case_faults ~seed ~n ~root ~items:k mode in
      (* each run gets its own adversary, drawing the same fates *)
      let faults () = Option.map (Fault.create ~seed) profile in
      let m_ref = Metrics.create () and m = Metrics.create () in
      let expected = Stream_ref.run ?faults:(faults ()) ~reliable tree ~items ~metrics:m_ref in
      let got =
        Broadcast.stream_down ?faults:(faults ()) ~reliable tree ~items:(Array.of_list items)
          ~metrics:m
      in
      Array.map Array.to_list got = expected
      && Metrics.to_json m = Metrics.to_json m_ref)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_bfs_tree_matches_centralized;
        prop_bellman_ford;
        prop_flood_components;
        prop_transport_oracle_exact;
        prop_metrics_conservation;
        prop_recovery_amnesia_oracle_exact;
        prop_fault_adversary_deterministic;
        prop_healed_partition_exact;
        prop_sort_inbox_is_stable_sort;
        prop_pqueue_matches_pair_heap;
        prop_stream_down_matches_list_model;
      ]
  in
  Alcotest.run "repro_congest"
    [
      ( "metrics",
        [
          Alcotest.test_case "accumulates" `Quick test_metrics_accumulates;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "breakdown ordering" `Quick test_metrics_breakdown_ordering;
          Alcotest.test_case "words and delivered" `Quick test_metrics_words_delivered;
          Alcotest.test_case "fault counters" `Quick test_metrics_fault_counters;
          Alcotest.test_case "merge fault counters" `Quick test_metrics_merge_fault_counters;
          Alcotest.test_case "recovery counters" `Quick test_metrics_recovery_counters;
          Alcotest.test_case "counters json" `Quick test_metrics_counters_json;
          Alcotest.test_case "pp" `Quick test_metrics_pp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "round counting" `Quick test_engine_counts_rounds;
          Alcotest.test_case "words and delivered" `Quick test_engine_counts_words_and_delivered;
          Alcotest.test_case "timing profile pulses" `Quick test_engine_timing_profile_pulses;
        ]
        @ List.concat
            [
              both_modes "bandwidth" test_engine_enforces_bandwidth;
              both_modes "non neighbor" test_engine_rejects_non_neighbor;
              both_modes "round limit payload" test_engine_round_limit_payload;
              both_modes "inbox sorted by sender" test_engine_inbox_sorted_by_sender;
              both_modes "oversize diagnostics" test_engine_oversize_diagnostics;
            ] );
      ( "audit",
        [
          Alcotest.test_case "unstable words" `Quick test_audit_catches_unstable_words;
          Alcotest.test_case "in-flight mutation" `Quick test_audit_catches_inflight_mutation;
          Alcotest.test_case "metrics drift" `Quick test_audit_catches_metrics_drift;
          Alcotest.test_case "audit off permits drift" `Quick test_audit_off_permits_drift;
          Alcotest.test_case "clean under faults" `Quick test_audit_clean_under_faults;
        ] );
      ( "faults",
        [
          Alcotest.test_case "profile validation" `Quick test_fault_profile_validation;
          Alcotest.test_case "deterministic" `Quick test_fault_run_is_deterministic;
          Alcotest.test_case "raw bfs degrades" `Quick test_fault_raw_bfs_degrades;
          Alcotest.test_case "crash-stop liveness" `Quick test_fault_crash_stop_cannot_livelock;
          Alcotest.test_case "crash partitions" `Quick test_fault_crash_partitions_raw_bfs;
          Alcotest.test_case "amnesia validation" `Quick test_fault_amnesia_requires_restart;
          Alcotest.test_case "amnesia reinit" `Quick test_engine_amnesia_reinits_state;
          Alcotest.test_case "amnesia liveness" `Quick test_engine_amnesia_outage_keeps_run_alive;
        ] );
      ( "partition & integrity",
        [
          Alcotest.test_case "partition validation" `Quick test_partition_profile_validation;
          Alcotest.test_case "partition semantics" `Quick test_partition_semantics;
          Alcotest.test_case "corruption never accepted" `Quick
            test_corruption_rejected_never_accepted;
          Alcotest.test_case "retransmit determinism" `Quick
            test_retransmit_schedule_deterministic;
          Alcotest.test_case "retransmit schedule pin" `Quick test_retransmit_schedule_pinned;
          Alcotest.test_case "retry cap terminates" `Quick
            test_retry_cap_declares_dead_link_and_terminates;
          Alcotest.test_case "nack keeps healed link alive" `Quick
            test_nack_keeps_healed_link_alive;
          Alcotest.test_case "detector fault-free complete" `Quick
            test_detector_complete_when_fault_free;
          Alcotest.test_case "detector latency bound" `Quick test_detector_latency_within_bound;
          Alcotest.test_case "deadline cuts chronic straggler" `Quick
            test_deadline_cuts_chronic_straggler;
          Alcotest.test_case "specs parse to their values" `Quick test_specs_parse_to_values;
          Alcotest.test_case "spec errors name the field" `Quick
            test_spec_errors_name_field_and_grammar;
          Alcotest.test_case "one cut pair drops its copies" `Quick test_single_cut_drops_copies;
          Alcotest.test_case "detector non neighbor" `Quick test_detector_rejects_non_neighbor;
        ] );
      ( "transport",
        [
          Alcotest.test_case "fault-free exact" `Quick test_transport_no_faults_exact;
          Alcotest.test_case "bfs under drops" `Quick test_transport_restores_bfs_under_drops;
          Alcotest.test_case "bellman-ford" `Quick test_transport_restores_bellman_ford;
          Alcotest.test_case "leader" `Quick test_transport_restores_leader;
          Alcotest.test_case "stream order" `Quick test_transport_preserves_stream_order;
          Alcotest.test_case "convergecast" `Quick test_transport_convergecast_under_faults;
          Alcotest.test_case "crash restart" `Quick test_transport_survives_crash_restart;
          Alcotest.test_case "amnesia alone degrades" `Quick
            test_transport_alone_loses_amnesia_state;
          Alcotest.test_case "watermark dedup" `Quick test_transport_watermark_dedup_exact;
          Alcotest.test_case "non neighbor" `Quick test_transport_rejects_non_neighbor;
          Alcotest.test_case "duplicate send" `Quick test_transport_rejects_duplicate_send;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "bfs amnesia exact" `Quick test_recovery_bfs_amnesia_exact;
          Alcotest.test_case "resync without checkpoints" `Quick
            test_recovery_without_checkpoints_still_exact;
          Alcotest.test_case "root crash" `Quick test_recovery_root_crash;
          Alcotest.test_case "bellman-ford amnesia" `Quick test_recovery_bellman_ford_amnesia;
          Alcotest.test_case "flood amnesia" `Quick test_recovery_flood_amnesia;
          Alcotest.test_case "crash-free zero overhead" `Quick
            test_recovery_crash_free_zero_round_overhead;
          Alcotest.test_case "non neighbor" `Quick test_recovery_rejects_non_neighbor;
        ] );
      ( "bfs tree",
        [
          Alcotest.test_case "grid" `Quick test_bfs_tree_grid;
          Alcotest.test_case "parents" `Quick test_bfs_tree_parents_consistent;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "flood" `Quick test_flood;
          Alcotest.test_case "convergecast" `Quick test_convergecast_sum;
          Alcotest.test_case "convergecast singleton" `Quick test_convergecast_single_node;
          Alcotest.test_case "stream pipelines" `Quick test_stream_down_pipelines;
        ] );
      ("leader", [ Alcotest.test_case "min id" `Quick test_leader_is_min_id ]);
      ( "bellman-ford",
        [
          Alcotest.test_case "directed" `Quick test_bellman_ford_exact;
          Alcotest.test_case "undirected" `Quick test_bellman_ford_undirected;
        ] );
      ( "apsp",
        [
          Alcotest.test_case "matches bfs" `Quick test_apsp_matches_bfs;
          Alcotest.test_case "diameter" `Quick test_diameter_baseline;
          Alcotest.test_case "linear scaling" `Quick test_diameter_baseline_scales_linearly;
          Alcotest.test_case "two approx" `Quick test_diameter_two_approx_bounds;
          Alcotest.test_case "flood components" `Quick test_flood_components_match_centralized;
          Alcotest.test_case "multi bfs exact" `Quick test_multi_bfs_exact;
          Alcotest.test_case "multi bfs scheduling" `Quick test_multi_bfs_scheduling_beats_sequential;
        ] );
      ( "regression",
        [
          Alcotest.test_case "pinned round counts" `Quick test_round_count_regression_guard;
        ] );
      ("properties", qsuite);
    ]
