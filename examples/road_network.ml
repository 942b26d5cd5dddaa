(* Road-network routing: exact shortest paths on a city-like grid with a
   few arterial shortcuts, using distance labeling (Theorems 1-2).

   Road networks are a textbook low-treewidth workload (the paper's
   motivation cites [MSJ19]: real-world road graphs have small treewidth).
   We model a 10x10 street grid with random travel times plus diagonal
   "highways", then answer origin-destination queries from labels and
   compare the query cost against re-running a distributed Bellman-Ford
   for every query.

   Run with: dune exec examples/road_network.exe *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Bellman_ford = Repro_congest.Bellman_ford
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp

let () =
  let rows = 10 and cols = 10 in
  let grid = Generators.grid rows cols in
  let rng = Random.State.make [| 2024 |] in
  (* streets: travel time 1..9; highways: a few long chords, time 2 *)
  let streets =
    Array.to_list (Digraph.edges grid)
    |> List.map (fun e ->
           (e.Digraph.src, e.Digraph.dst, 1 + Random.State.int rng 9))
  in
  let highways = [ (0, 55, 2); (9, 44, 2); (90, 35, 2); (99, 22, 2) ] in
  let g = Digraph.create ~directed:false (rows * cols) (streets @ highways) in
  Format.printf "road network: %a@." Digraph.pp g;

  let metrics = Metrics.create () in
  let report = Build.decompose g ~metrics in
  let labels = Dl.build g report.Build.decomposition ~metrics in
  Format.printf "preprocessing done in %d simulated rounds@." (Metrics.rounds metrics);

  (* one SSSP broadcast from a depot: every intersection learns its
     travel time from the depot *)
  let depot = 0 in
  let r = Sssp.run g labels ~source:depot ~metrics in
  Format.printf "depot broadcast: %d rounds; farthest intersection at time %d@."
    r.Sssp.broadcast_rounds
    (Array.fold_left max 0
       (Array.map (fun d -> if d >= Digraph.inf then 0 else d) r.Sssp.dist_from_source));

  (* point-to-point queries straight from labels: zero extra rounds
     beyond exchanging two labels *)
  Format.printf "@.origin-destination queries (label decode only):@.";
  let mismatches = ref 0 in
  List.iter
    (fun (u, v) ->
      let d = Labeling.decode labels.(u) labels.(v) in
      let reference = (Shortest_path.dijkstra g u).(v) in
      if d <> reference then incr mismatches;
      Format.printf "  %2d -> %2d: time %2d  [%s]@." u v d
        (if d = reference then "exact" else "MISMATCH"))
    [ (0, 99); (9, 90); (23, 87); (50, 5) ];

  (* hop-by-hop routing: after one neighbor label exchange, every
     intersection forwards greedily along exact shortest paths *)
  let table = Repro_core.Routing.prepare g labels ~metrics in
  (match Repro_core.Routing.route table ~src:0 ~dst:99 with
  | Some path ->
      Format.printf "@.routed path 0 -> 99: %s@."
        (String.concat " > " (List.map string_of_int path))
  | None -> Format.printf "@.no route 0 -> 99@.");

  (* contrast: answering one query with a fresh distributed Bellman-Ford *)
  let mb = Metrics.create () in
  ignore (Bellman_ford.run g ~source:0 ~metrics:mb);
  Format.printf "@.one Bellman-Ford query costs %d rounds; a label decode costs 0@."
    (Metrics.rounds mb);
  if !mismatches > 0 then exit 1
