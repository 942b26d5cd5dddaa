(* Shortest-cycle detection in a token-ring backbone (Theorem 5).

   A telecom backbone of small rings chained into a large ring: the girth
   is the cheapest cycle, the quantity that bounds how quickly a routing
   loop can come back to bite. We compute it with the exact-count-1
   stateful-walk reduction and check against the centralized reference,
   in both the randomized and the derandomized (per-edge) modes.

   Run with: dune exec examples/ring_girth.exe *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Girth_ref = Repro_graph.Girth_ref
module Metrics = Repro_congest.Metrics
module Girth = Repro_core.Girth

let () =
  let g =
    Generators.random_weights ~seed:5 ~max_weight:7
      (Generators.ring_of_rings ~rings:5 ~ring_size:6)
  in
  Format.printf "backbone: %a@." Digraph.pp g;
  let reference = Girth_ref.girth g in
  Format.printf "centralized reference girth: %d@.@." reference;

  (* the randomized mode may miss the girth (an upper bound, Lemma 6);
     per-edge is exact by construction, so anything else is a mismatch *)
  let mismatches = ref 0 in
  let run name ~exact compute =
    let m = Metrics.create () in
    let r = compute ~metrics:m in
    let verdict =
      if r.Girth.girth = reference then "exact"
      else if r.Girth.girth > reference && not exact then "upper bound"
      else "MISMATCH"
    in
    if verdict = "MISMATCH" then incr mismatches;
    Format.printf "%-22s girth %3d, %2d trials, %8d rounds  [%s]@." name r.Girth.girth
      r.Girth.trials (Metrics.rounds m) verdict
  in
  run "randomized (charged)" ~exact:false (fun ~metrics ->
      Girth.undirected ~mode:`Charged ~repeats:8 ~seed:1 g ~metrics);
  run "derandomized per-edge" ~exact:true (fun ~metrics ->
      Girth.undirected ~mode:`PerEdge g ~metrics);

  (* directed variant: orient the rings and re-ask *)
  let gd = Generators.bidirect ~seed:6 ~max_weight:7 (Generators.ring_of_rings ~rings:5 ~ring_size:6) in
  let m = Metrics.create () in
  let rd = Girth.directed gd ~metrics:m in
  let reference_d = Girth_ref.girth gd in
  if rd.Girth.girth <> reference_d then incr mismatches;
  Format.printf "directed backbone:     girth %3d (reference %d), %8d rounds  [%s]@."
    rd.Girth.girth reference_d (Metrics.rounds m)
    (if rd.Girth.girth = reference_d then "exact" else "MISMATCH");
  if !mismatches > 0 then exit 1
