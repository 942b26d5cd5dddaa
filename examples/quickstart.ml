(* Quickstart: the full pipeline on one small graph.

   1. generate a low-treewidth graph,
   2. build a tree decomposition with the distributed algorithm (Thm 1),
   3. construct exact distance labels (Thm 2),
   4. answer distance queries from labels alone,
   and print the simulated CONGEST round counts at each step.

   Run with: dune exec examples/quickstart.exe *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Decomposition = Repro_treedec.Decomposition
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl

let () =
  (* a weighted partial 2-tree on 48 vertices *)
  let g =
    Generators.random_weights ~seed:7 ~max_weight:9
      (Generators.partial_k_tree ~seed:7 48 2 ~keep:0.7)
  in
  Format.printf "graph: %a@." Digraph.pp g;

  (* step 1: distributed tree decomposition *)
  let metrics = Metrics.create () in
  let report = Build.decompose g ~metrics in
  let dec = report.Build.decomposition in
  Format.printf "decomposition: %a (%s)@." Decomposition.pp dec
    (match Decomposition.validate dec with Ok () -> "valid" | Error e -> e);

  (* step 2: exact distance labels *)
  let labels = Dl.build g dec ~metrics in
  Format.printf "labels built; largest label = %d words@." (Dl.max_label_words labels);

  (* step 3: answer queries from labels only *)
  let queries = [ (0, 47); (3, 31); (12, 12); (40, 5) ] in
  let mismatches = ref 0 in
  List.iter
    (fun (u, v) ->
      let from_labels = Labeling.decode labels.(u) labels.(v) in
      let reference = (Shortest_path.dijkstra g u).(v) in
      if from_labels <> reference then incr mismatches;
      Format.printf "d(%d,%d) = %d  [dijkstra: %d]  %s@." u v from_labels reference
        (if from_labels = reference then "ok" else "MISMATCH"))
    queries;

  Format.printf "@.simulated CONGEST cost:@.%a@." Metrics.pp metrics;
  if !mismatches > 0 then exit 1
