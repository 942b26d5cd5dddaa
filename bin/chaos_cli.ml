(* Chaos smoke driver: sweep fault profiles — drops, duplication, delay,
   freeze and amnesia crashes — over BFS and the Bellman-Ford SSSP
   baseline on small k-trees, with the engine invariant auditor forced
   on, and check every output against its centralized oracle. Exits
   non-zero on the first mismatch (or audit violation, which raises).
   This is the CI job's entry point; see .github/workflows/ci.yml. *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Engine = Repro_congest.Engine
module Fault = Repro_congest.Fault
module Recovery = Repro_congest.Recovery
module Bfs_tree = Repro_congest.Bfs_tree
module Bellman_ford = Repro_congest.Bellman_ford
module Detector = Repro_congest.Detector
open Cmdliner

let profiles =
  [
    ("drop-heavy", Fault.profile ~drop:0.3 ~max_delay:1 ());
    ("dup-delay", Fault.profile ~duplicate:0.4 ~max_delay:3 ());
    ( "freeze-crash",
      Fault.profile ~drop:0.1 ~crashes:[ Fault.crash 2 ~from:3 ~until:15 ] () );
    ( "amnesia",
      Fault.profile
        ~crashes:[ Fault.crash 3 ~from:2 ~until:14 ~mode:Fault.Amnesia ]
        () );
    ( "amnesia-lossy",
      Fault.profile ~drop:0.15 ~duplicate:0.1 ~max_delay:1
        ~crashes:
          [
            Fault.crash 1 ~from:4 ~until:12 ~mode:Fault.Amnesia;
            Fault.crash 5 ~from:8 ~until:22 ~mode:Fault.Amnesia;
          ]
        () );
    ("corrupt-heavy", Fault.profile ~corrupt:0.3 ());
    ("corrupt-lossy", Fault.profile ~corrupt:0.2 ~drop:0.15 ~duplicate:0.1 ~max_delay:1 ());
    ( "partition-heal",
      Fault.profile ~drop:0.1
        ~partitions:[ Fault.partition ~from:0 ~heal:40 (Fault.Around [ 5 ]) ]
        () );
    (* timing profiles route through the asynchronous executor; bounded
       stalls and slowdowns preserve exactness by construction, so the
       same oracle checks apply (plus: pulses must have been charged) *)
    ( "straggler-sweep",
      Fault.profile ~drop:0.1
        ~stragglers:
          [
            Fault.straggle 2 ~from:3 ~until:9 ~factor:4;
            Fault.straggle 5 ~from:6 ~until:12;
          ]
        ~link_latency:2 () );
    ( "skewed-clock",
      Fault.profile ~duplicate:0.2 ~max_delay:2 ~skew:5 ~link_latency:3 () );
  ]

(* Non-healing partitions: exactness everywhere is impossible, so these
   run the detector-certified variants and are checked against the
   degraded oracle — verdict reachable-set vs {!Detector.oracle}, and
   distances vs the centralized answer on the graph minus the severed
   links. *)
let certified_profiles =
  [
    ("partition-node", Fault.profile ~partitions:[ Fault.partition ~from:0 (Fault.Around [ 7 ]) ] ());
    ( "partition-pair",
      Fault.profile ~corrupt:0.1
        ~partitions:[ Fault.partition ~from:0 (Fault.Around [ 3; 11 ]) ]
        () );
    (* an unbounded stall behaves as a crash-stop under the async
       executor: the detector must suspect the silent node and the
       certified run excise it *)
    ("stall-forever", Fault.profile ~stragglers:[ Fault.straggle 7 ~from:4 ] ~link_latency:1 ());
  ]

(* Deadline-paced degraded mode: a permanently slowed node blows the
   pulse deadline until every neighbor cuts it, the detector suspects
   the silence, and the certified run must excise exactly the chronic
   stragglers — the oracle cannot see heuristic cuts, so the expected
   reachable set is written out explicitly. *)
let deadline_profiles =
  [
    ( "deadline-cut",
      4,
      Fault.profile ~stragglers:[ Fault.straggle 7 ~from:2 ~factor:40 ] (),
      [ 7 ] );
  ]

(* [g] minus its permanently severed links and (under the async
   executor) the links of its forever-stalled nodes: the degraded
   ground truth *)
let prune_severed g f =
  let async = Fault.timing_active f in
  let dead v = async && Fault.eventually_stalled f v in
  let quads =
    Array.to_list (Digraph.edges g)
    |> List.filter (fun (e : Digraph.edge) ->
           (not (Fault.severed f ~src:e.src ~dst:e.dst))
           && (not (dead e.src))
           && not (dead e.dst))
    |> List.map (fun (e : Digraph.edge) -> (e.src, e.dst, e.weight, e.label))
  in
  Digraph.create_labeled ~directed:(Digraph.directed g) (Digraph.n g) quads

(* The certified contract covers the component the verdict certifies:
   an excised node's local output is unspecified (it may hold values
   legitimately learned before it stalled or was cut), so ground-truth
   distances are compared on the reachable set only. *)
let dist_ok ~reachable got want =
  Array.length got = Array.length want
  && Array.for_all Fun.id (Array.mapi (fun i r -> (not r) || got.(i) = want.(i)) reachable)

(* [g] minus every link touching [nodes] *)
let prune_nodes g nodes =
  let quads =
    Array.to_list (Digraph.edges g)
    |> List.filter (fun (e : Digraph.edge) ->
           (not (List.mem e.src nodes)) && not (List.mem e.dst nodes))
    |> List.map (fun (e : Digraph.edge) -> (e.src, e.dst, e.weight, e.label))
  in
  Digraph.create_labeled ~directed:(Digraph.directed g) (Digraph.n g) quads

let run seeds checkpoint_every only obs =
  Cli_common.setup_obs obs;
  Engine.audit_enabled := true;
  let wanted name = only = [] || List.mem name only in
  let failures = ref 0 in
  let total = Metrics.create () in
  let case ~graph ~profile_name ~seed label ok m =
    Format.printf "%-14s %-16s seed=%-3d %-12s %s (%d rounds, %d recoveries)@."
      graph profile_name seed label
      (if ok then "exact" else "MISMATCH")
      (Metrics.rounds m) (Metrics.get m Recoveries);
    Metrics.merge ~into:total m;
    if not ok then incr failures
  in
  let recovery = { Recovery.checkpoint_every } in
  List.iter
    (fun (gname, g) ->
      let skel = Digraph.skeleton g in
      List.iter
        (fun (pname, profile) ->
          if wanted pname then
            for seed = 1 to seeds do
              let faults () = Fault.create ~seed profile in
              (* a corrupt-only profile must never smuggle a garbled
                 payload past the transport's checksum *)
              let integrity m =
                profile.Fault.corrupt = 0.0
                || Metrics.get m Rejected = Metrics.get m Corrupted
              in
              (* timing profiles must actually have taken the async
                 path: pulses are charged only by the synchronizer *)
              let timing =
                profile.Fault.stragglers <> []
                || profile.Fault.link_latency > 0
                || profile.Fault.skew > 0
              in
              let async_ok m = (not timing) || Metrics.get m Pulses > 0 in
              let m = Metrics.create () in
              let t = Bfs_tree.build ~faults:(faults ()) ~recovery skel ~root:0 ~metrics:m in
              case ~graph:gname ~profile_name:pname ~seed "bfs"
                (t.Bfs_tree.dist = Traversal.bfs_undirected skel 0
                && (profile.Fault.crashes <> [] || integrity m)
                && async_ok m)
                m;
              let m = Metrics.create () in
              let d = Bellman_ford.run ~faults:(faults ()) ~recovery g ~source:0 ~metrics:m in
              case ~graph:gname ~profile_name:pname ~seed "sssp"
                (d = Shortest_path.dijkstra g 0
                && (profile.Fault.crashes <> [] || integrity m)
                && async_ok m)
                m
            done)
        profiles;
      List.iter
        (fun (pname, profile) ->
          if wanted pname then
            for seed = 1 to seeds do
              let faults () = Fault.create ~seed profile in
              let f = faults () in
              let oracle =
                Detector.oracle ~faults:f ~async:(Fault.timing_active f) skel ~root:0
              in
              let verdict_ok = function
                | Detector.Complete -> Array.for_all Fun.id oracle
                | Detector.Partial { reachable; _ } -> reachable = oracle
              in
              let m = Metrics.create () in
              let t, v = Bfs_tree.build_certified ~faults:f skel ~root:0 ~metrics:m in
              case ~graph:gname ~profile_name:pname ~seed "bfs/certified"
                (verdict_ok v
                && dist_ok ~reachable:oracle t.Bfs_tree.dist
                     (Traversal.bfs_undirected (prune_severed skel f) 0))
                m;
              let f = faults () in
              let m = Metrics.create () in
              let d, v = Bellman_ford.run_certified ~faults:f g ~source:0 ~metrics:m in
              case ~graph:gname ~profile_name:pname ~seed "sssp/certified"
                (verdict_ok v
                && dist_ok ~reachable:oracle d (Shortest_path.dijkstra (prune_severed g f) 0))
                m
            done)
        certified_profiles;
      List.iter
        (fun (pname, dl, profile, cut_nodes) ->
          if wanted pname then
            for seed = 1 to seeds do
              let saved = !Repro_congest.Async_engine.deadline in
              Repro_congest.Async_engine.deadline := dl;
              Fun.protect
                ~finally:(fun () -> Repro_congest.Async_engine.deadline := saved)
              @@ fun () ->
              let f = Fault.create ~seed profile in
              let expected =
                Array.init (Digraph.n skel) (fun v -> not (List.mem v cut_nodes))
              in
              let m = Metrics.create () in
              let t, v = Bfs_tree.build_certified ~faults:f skel ~root:0 ~metrics:m in
              case ~graph:gname ~profile_name:pname ~seed "bfs/deadline"
                ((match v with
                 | Detector.Partial { reachable; _ } -> reachable = expected
                 | Detector.Complete -> false)
                && dist_ok ~reachable:expected t.Bfs_tree.dist
                     (Traversal.bfs_undirected (prune_nodes skel cut_nodes) 0)
                && Metrics.get m Pulses > 0)
                m
            done)
        deadline_profiles)
    [
      ("ktree-24-2", Generators.random_weights ~seed:5 ~max_weight:9 (Generators.k_tree ~seed:5 24 2));
      ( "partial-32-3",
        Generators.random_weights ~seed:7 ~max_weight:9
          (Generators.partial_k_tree ~seed:7 32 3 ~keep:0.6) );
    ];
  if !failures > 0 then begin
    Format.printf "%d chaos case(s) FAILED@." !failures;
    exit 1
  end;
  Format.printf "all chaos cases exact (audit on)@.";
  Cli_common.metrics_json obs ~name:"chaos-total" total

let seeds_t =
  Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc:"Fault seeds per profile.")

let checkpoint_every_t =
  Arg.(
    value & opt int 4
    & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Recovery checkpoint interval.")

let only_t =
  Arg.(
    value & opt_all string []
    & info [ "profile" ] ~docv:"NAME"
        ~doc:"Run only the named fault profile (repeatable; default: all).")

let cmd =
  Cmd.v
    (Cmd.info "chaos_cli" ~doc:"Fault-profile sweep with oracle checks (CI chaos smoke)")
    Term.(const run $ seeds_t $ checkpoint_every_t $ only_t $ Cli_common.obs_t)

let () = exit (Cmd.eval cmd)
