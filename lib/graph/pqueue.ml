(* Priorities and values live in parallel arrays, so a push boxes
   nothing: the heap invariant and every sift comparison are on
   [prios], and [vals] moves with it. *)
type 'a t = { mutable prios : int array; mutable vals : 'a array; mutable size : int }

let create () = { prios = [||]; vals = [||]; size = 0 }
let is_empty q = q.size = 0
let length q = q.size

let grow q x =
  let cap = Array.length q.prios in
  if q.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let prios = Array.make ncap 0 and vals = Array.make ncap x in
    Array.blit q.prios 0 prios 0 q.size;
    Array.blit q.vals 0 vals 0 q.size;
    q.prios <- prios;
    q.vals <- vals
  end

let swap q i j =
  let p = q.prios.(i) and x = q.vals.(i) in
  q.prios.(i) <- q.prios.(j);
  q.vals.(i) <- q.vals.(j);
  q.prios.(j) <- p;
  q.vals.(j) <- x

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.prios.(i) < q.prios.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < q.size && q.prios.(l) < q.prios.(i) then l else i in
  let smallest = if r < q.size && q.prios.(r) < q.prios.(smallest) then r else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

let push q prio x =
  grow q x;
  q.prios.(q.size) <- prio;
  q.vals.(q.size) <- x;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop_min q =
  if q.size = 0 then raise Not_found;
  let top = (q.prios.(0), q.vals.(0)) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.prios.(0) <- q.prios.(q.size);
    q.vals.(0) <- q.vals.(q.size);
    sift_down q 0
  end;
  top
