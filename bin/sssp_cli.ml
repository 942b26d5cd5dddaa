(* Exact SSSP / distance labeling on a generated graph, with the
   Bellman-Ford CONGEST baseline for comparison. Optional fault
   injection (--drop/--dup/--delay/--fault-seed) applies to the
   message-level phases; exits non-zero when an output fails its
   oracle. *)

module Digraph = Repro_graph.Digraph
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Bellman_ford = Repro_congest.Bellman_ford
module Build = Repro_treedec.Build
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp
open Cmdliner

let run g source fc obs =
  Cli_common.setup_obs obs;
  Cli_common.print_graph_summary g;
  Cli_common.print_fault_config fc;
  (* permanent partitions / crash-stops: certify the reachable component
     first, then run the pipeline on it (fault-free — the adversary's
     node ids refer to the original graph) *)
  let g, source, fc =
    match Cli_common.certified_subgraph fc obs g ~root:source with
    | None -> (g, source, fc)
    | Some (g', _, new_of_old) ->
        (g', new_of_old.(source), { fc with Cli_common.faults = None })
  in
  let faults = fc.Cli_common.faults
  and reliable = fc.Cli_common.reliable
  and recovery = fc.Cli_common.recovery in
  let expected = Shortest_path.dijkstra g source in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  let labels = Dl.build g report.Build.decomposition ~metrics:m in
  Format.printf "max label size: %d words@." (Dl.max_label_words labels);
  let ok =
    match Sssp.run ?faults ~reliable g labels ~source ~metrics:m with
    | r ->
        let ok = r.Sssp.dist_from_source = expected in
        Format.printf "SSSP from %d: %s (broadcast %d rounds)@." source
          (if ok then "exact" else "MISMATCH vs Dijkstra")
          r.Sssp.broadcast_rounds;
        ok
    | exception Invalid_argument msg ->
        (* an unreliable label stream can arrive truncated *)
        Format.printf "SSSP from %d: FAILED under faults (%s)@." source msg;
        false
  in
  Format.printf "ours:@ %a@." Metrics.pp m;
  Cli_common.metrics_json obs ~name:"ours" m;
  let mb = Metrics.create () in
  let bf = Bellman_ford.run ?faults ~reliable ?recovery g ~source ~metrics:mb in
  let bf_ok = bf = expected in
  Format.printf "baseline Bellman-Ford: %s, %d rounds@."
    (if bf_ok then "exact" else "MISMATCH")
    (Metrics.rounds mb);
  if Metrics.get mb Retransmissions > 0 then
    Format.printf "baseline transport: %d retransmissions over %d dropped / %d duplicated@."
      (Metrics.get mb Retransmissions) (Metrics.get mb Dropped) (Metrics.get mb Duplicated);
  Cli_common.metrics_json obs ~name:"bellman-ford" mb;
  if not (ok && bf_ok) then exit 1

let source_t =
  Arg.(value & opt int 0 & info [ "source" ] ~docv:"V" ~doc:"Source vertex.")

let cmd =
  Cmd.v
    (Cmd.info "sssp_cli" ~doc:"Exact SSSP via distance labeling (Theorem 2)")
    Term.(
      const run $ Cli_common.graph_t $ source_t $ Cli_common.fault_config_t
      $ Cli_common.obs_t)

let () = exit (Cmd.eval cmd)
