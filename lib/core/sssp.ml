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
  let k = Labeling.length la_s in
  let items = Array.make (3 * k) 0 in
  for i = 0 to k - 1 do
    items.(3 * i) <- Labeling.anchor_at la_s i;
    items.((3 * i) + 1) <- Labeling.d_to_at la_s i;
    items.((3 * i) + 2) <- Labeling.d_from_at la_s i
  done;
  let before = Metrics.rounds metrics in
  let received = Broadcast.stream_down ?faults ?reliable tree ~items ~metrics in
  let broadcast_rounds = Metrics.rounds metrics - before in
  (* each node reconstructs la(source) from the received stream and
     decodes locally *)
  let n = Digraph.n g in
  let dist_from_source = Array.make n Digraph.inf in
  let dist_to_source = Array.make n Digraph.inf in
  (* one scratch copy of la(source), emptied per node: its arrays grow to
     the stream's length once, not once per node *)
  let la_s_local = Labeling.create source in
  for v = 0 to n - 1 do
    let got = received.(v) in
    if Array.length got mod 3 <> 0 then invalid_arg "Sssp.run: malformed label stream";
    Labeling.clear la_s_local;
    for i = 0 to (Array.length got / 3) - 1 do
      Labeling.set la_s_local ~anchor:got.(3 * i) ~d_to:got.((3 * i) + 1)
        ~d_from:got.((3 * i) + 2)
    done;
    dist_from_source.(v) <- Labeling.decode la_s_local labels.(v);
    dist_to_source.(v) <- Labeling.decode labels.(v) la_s_local
  done;
  { dist_from_source; dist_to_source; broadcast_rounds }
