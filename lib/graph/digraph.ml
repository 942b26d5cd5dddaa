type edge = { id : int; src : int; dst : int; weight : int; label : int }

type t = {
  n : int;
  directed : bool;
  edges : edge array;
  out_adj : int array array;
  in_adj : int array array;
}

let inf = max_int / 4

let check_endpoint n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "Digraph: vertex %d out of range [0,%d)" v n)

let build_adjacency ~directed n edges =
  let out_cnt = Array.make n 0 and in_cnt = Array.make n 0 in
  let bump counts v = counts.(v) <- counts.(v) + 1 in
  Array.iter
    (fun e ->
      if directed then begin
        bump out_cnt e.src;
        bump in_cnt e.dst
      end
      else begin
        bump out_cnt e.src;
        if e.dst <> e.src then bump out_cnt e.dst
      end)
    edges;
  let out_adj = Array.init n (fun v -> Array.make out_cnt.(v) (-1)) in
  let in_adj =
    if directed then Array.init n (fun v -> Array.make in_cnt.(v) (-1)) else out_adj
  in
  let out_pos = Array.make n 0 and in_pos = Array.make n 0 in
  let put adj pos v e =
    adj.(v).(pos.(v)) <- e;
    pos.(v) <- pos.(v) + 1
  in
  Array.iter
    (fun e ->
      if directed then begin
        put out_adj out_pos e.src e.id;
        put in_adj in_pos e.dst e.id
      end
      else begin
        put out_adj out_pos e.src e.id;
        if e.dst <> e.src then put out_adj out_pos e.dst e.id
      end)
    edges;
  (out_adj, in_adj)

let of_edge_array ~directed n edges =
  let out_adj, in_adj = build_adjacency ~directed n edges in
  { n; directed; edges; out_adj; in_adj }

let create_labeled ~directed n spec =
  let mk i (src, dst, weight, label) =
    check_endpoint n src;
    check_endpoint n dst;
    if weight < 0 then invalid_arg "Digraph: negative weight";
    { id = i; src; dst; weight; label }
  in
  of_edge_array ~directed n (Array.of_list (List.mapi mk spec))

let create ~directed n spec =
  create_labeled ~directed n (List.map (fun (s, d, w) -> (s, d, w, 0)) spec)

let with_labels g f =
  of_edge_array ~directed:g.directed g.n
    (Array.map (fun e -> { e with label = f e }) g.edges)

let with_weights g f =
  of_edge_array ~directed:g.directed g.n
    (Array.map (fun e -> { e with weight = f e }) g.edges)

let n g = g.n
let m g = Array.length g.edges
let directed g = g.directed
let edge g i = g.edges.(i)
let edges g = g.edges
let out_edges g v = g.out_adj.(v)
let in_edges g v = if g.directed then g.in_adj.(v) else g.out_adj.(v)

let dst_of g e v =
  if g.directed then e.dst else if e.src = v then e.dst else e.src

let iter_adjacent g v f =
  let visit ei =
    let e = g.edges.(ei) in
    f (if e.src = v then e.dst else e.src)
  in
  Array.iter visit g.out_adj.(v);
  if g.directed then Array.iter visit g.in_adj.(v)

(* the other endpoint of every incident edge, in one array of the
   degree's length, sorted and deduplicated in place; [Array.sub] cuts
   it only when self-loops or parallel or antiparallel edges leave it
   short *)
let neighbors g v =
  let out = g.out_adj.(v) in
  let inc = if g.directed then g.in_adj.(v) else [||] in
  let n_out = Array.length out in
  let deg = n_out + Array.length inc in
  let buf = Array.make deg 0 in
  for i = 0 to deg - 1 do
    let e = g.edges.(if i < n_out then out.(i) else inc.(i - n_out)) in
    buf.(i) <- (if e.src = v then e.dst else e.src)
  done;
  Array.sort Int.compare buf;
  (* keep each endpoint once, and drop [v], which self-loops put there *)
  let kept = ref 0 in
  for i = 0 to deg - 1 do
    let u = buf.(i) in
    if u <> v && (!kept = 0 || u <> buf.(!kept - 1)) then begin
      buf.(!kept) <- u;
      incr kept
    end
  done;
  if !kept = deg then buf else Array.sub buf 0 !kept

(* The first edge of each unordered pair, without a table of pairs: a
   stable counting sort buckets the edges by their smaller endpoint, in
   edge order; inside a bucket, stamping the larger endpoint with the
   bucket's vertex marks each pair's first edge. The kept edges then
   keep their edge order, as ids [0 ..]. *)
let skeleton g =
  let lo e = Int.min e.src e.dst and hi e = Int.max e.src e.dst in
  (* bucket u is [start.(u) .. start.(u + 1) - 1] of [bucketed]: the
     non-loop edges whose smaller endpoint is u *)
  let start = Array.make (g.n + 1) 0 in
  Array.iter (fun e -> if e.src <> e.dst then start.(lo e + 1) <- start.(lo e + 1) + 1) g.edges;
  for u = 1 to g.n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let bucketed = Array.make start.(g.n) 0 and next = Array.sub start 0 g.n in
  Array.iteri
    (fun i e ->
      if e.src <> e.dst then begin
        bucketed.(next.(lo e)) <- i;
        next.(lo e) <- next.(lo e) + 1
      end)
    g.edges;
  let first = Array.make (Array.length g.edges) false and stamp = Array.make g.n (-1) in
  let kept = ref 0 in
  for u = 0 to g.n - 1 do
    for k = start.(u) to start.(u + 1) - 1 do
      let i = bucketed.(k) in
      let v = hi g.edges.(i) in
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        first.(i) <- true;
        incr kept
      end
    done
  done;
  let edges = Array.make !kept { id = 0; src = 0; dst = 0; weight = 1; label = 0 } in
  let id = ref 0 in
  Array.iteri
    (fun i e ->
      if first.(i) then begin
        edges.(!id) <- { id = !id; src = lo e; dst = hi e; weight = 1; label = 0 };
        incr id
      end)
    g.edges;
  of_edge_array ~directed:false g.n edges

let max_multiplicity g =
  let counts = Hashtbl.create (Array.length g.edges) in
  let best = ref (if Array.length g.edges = 0 then 0 else 1) in
  Array.iter
    (fun e ->
      let key = (min e.src e.dst, max e.src e.dst) in
      let c = (try Hashtbl.find counts key with Not_found -> 0) + 1 in
      Hashtbl.replace counts key c;
      if c > !best then best := c)
    g.edges;
  !best

let induced g vs =
  let old_of_new = Array.of_list vs in
  let nn = Array.length old_of_new in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let kept = ref [] in
  Array.iter
    (fun e ->
      let s = new_of_old.(e.src) and d = new_of_old.(e.dst) in
      if s >= 0 && d >= 0 then kept := { e with src = s; dst = d } :: !kept)
    g.edges;
  let kept = Array.of_list (List.rev !kept) in
  let kept = Array.mapi (fun i e -> { e with id = i }) kept in
  (of_edge_array ~directed:g.directed nn kept, old_of_new, new_of_old)

let reverse g =
  if not g.directed then g
  else
    of_edge_array ~directed:true g.n
      (Array.map (fun e -> { e with src = e.dst; dst = e.src }) g.edges)

let total_weight g = Array.fold_left (fun acc e -> acc + e.weight) 0 g.edges

let pp fmt g =
  Format.fprintf fmt "@[<h>%s graph: n=%d m=%d@]"
    (if g.directed then "directed" else "undirected")
    g.n (Array.length g.edges)
