module Digraph = Repro_graph.Digraph
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Broadcast = Repro_congest.Broadcast

type result = {
  dist_from_source : int array;
  dist_to_source : int array;
  broadcast_rounds : int;
}

let run ?faults ?reliable g labels ~source ~metrics =
  let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
  let tree = Bfs_tree.build ?faults ?reliable skeleton ~root:source ~metrics in
  let la_s = labels.(source) in
  (* stream the source label: anchor id, d_to, d_from per entry *)
  let items = ref [] in
  for i = Labeling.length la_s - 1 downto 0 do
    items :=
      Labeling.anchor_at la_s i :: Labeling.d_to_at la_s i :: Labeling.d_from_at la_s i :: !items
  done;
  let items = !items in
  let before = Metrics.rounds metrics in
  let received = Broadcast.stream_down ?faults ?reliable tree ~items ~metrics in
  let broadcast_rounds = Metrics.rounds metrics - before in
  (* each node reconstructs la(source) from the received stream and
     decodes locally *)
  let n = Digraph.n g in
  let dist_from_source = Array.make n Digraph.inf in
  let dist_to_source = Array.make n Digraph.inf in
  for v = 0 to n - 1 do
    let rec rebuild la = function
      | a :: dt :: df :: rest ->
          Labeling.set la ~anchor:a ~d_to:dt ~d_from:df;
          rebuild la rest
      | [] -> la
      | _ -> invalid_arg "Sssp.run: malformed label stream"
    in
    let la_s_local = rebuild (Labeling.create source) received.(v) in
    dist_from_source.(v) <- Labeling.decode la_s_local labels.(v);
    dist_to_source.(v) <- Labeling.decode labels.(v) la_s_local
  done;
  { dist_from_source; dist_to_source; broadcast_rounds }
