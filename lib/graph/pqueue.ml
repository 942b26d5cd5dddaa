type 'a t = { mutable heap : (int * 'a) array; mutable size : int }

let create () = { heap = [||]; size = 0 }
let is_empty q = q.size = 0
let length q = q.size

let grow q entry =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let nheap = Array.make ncap entry in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end

let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if fst heap.(i) < fst heap.(parent) then begin
      let tmp = heap.(i) in
      heap.(i) <- heap.(parent);
      heap.(parent) <- tmp;
      sift_up heap parent
    end
  end

let rec sift_down heap size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < size && fst heap.(l) < fst heap.(!smallest) then smallest := l;
  if r < size && fst heap.(r) < fst heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = heap.(i) in
    heap.(i) <- heap.(!smallest);
    heap.(!smallest) <- tmp;
    sift_down heap size !smallest
  end

let push q prio x =
  let entry = (prio, x) in
  grow q entry;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q.heap (q.size - 1)

let pop_min q =
  if q.size = 0 then raise Not_found;
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q.heap q.size 0
  end;
  top
