let inf = Digraph.inf

let bfs_gen ~respect_direction g src =
  let n = Digraph.n g in
  let dist = Array.make n inf in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  let relax v u =
    if dist.(u) = inf then begin
      dist.(u) <- dist.(v) + 1;
      Queue.add u queue
    end
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun ei ->
        let e = Digraph.edge g ei in
        relax v (Digraph.dst_of g e v))
      (Digraph.out_edges g v);
    if not respect_direction then
      Array.iter
        (fun ei ->
          let e = Digraph.edge g ei in
          relax v (if e.Digraph.src = v then e.Digraph.dst else e.Digraph.src))
        (Digraph.in_edges g v)
  done;
  dist

let bfs g src = bfs_gen ~respect_direction:true g src
let bfs_undirected g src = bfs_gen ~respect_direction:false g src

let components_mask g mask =
  let n = Digraph.n g in
  let labels = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if mask.(s) && labels.(s) < 0 then begin
      let c = !count in
      incr count;
      labels.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        let visit ei =
          let e = Digraph.edge g ei in
          let grab u = if mask.(u) && labels.(u) < 0 then begin labels.(u) <- c; Queue.add u queue end in
          grab e.Digraph.src;
          grab e.Digraph.dst
        in
        Array.iter visit (Digraph.out_edges g v);
        if Digraph.directed g then Array.iter visit (Digraph.in_edges g v)
      done
    end
  done;
  (labels, !count)

let components g = components_mask g (Array.make (Digraph.n g) true)

let is_connected g = Digraph.n g = 0 || snd (components g) = 1

let diameter g =
  let n = Digraph.n g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    (try
       for v = 0 to n - 1 do
         let dist = bfs_undirected g v in
         Array.iter
           (fun d ->
             if d >= inf then begin best := inf; raise Exit end;
             if d > !best then best := d)
           dist
       done
     with Exit -> ());
    !best
  end
