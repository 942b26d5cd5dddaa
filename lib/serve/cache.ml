module Metrics = Repro_congest.Metrics

type t = {
  capacity : int;
  keys : int array;
  values : int array;
  prev : int array;
  next : int array;
  (* open-addressing index from key to slot, linear probing, sized at
     [create] to at least twice the slots: [-1] marks an empty bucket *)
  table : int array;
  mask : int;
  mutable head : int;
  mutable tail : int;
  mutable len : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let absent = min_int

let create capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  let n = max capacity 1 in
  let rec fit size = if size >= 2 * n then size else fit (2 * size) in
  let size = fit 2 in
  {
    capacity;
    keys = Array.make n 0;
    values = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    table = Array.make size (-1);
    mask = size - 1;
    head = -1;
    tail = -1;
    len = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t i =
  let p = t.prev.(i) and nx = t.next.(i) in
  if p >= 0 then t.next.(p) <- nx else t.head <- nx;
  if nx >= 0 then t.prev.(nx) <- p else t.tail <- p

let push_front t i =
  t.prev.(i) <- -1;
  t.next.(i) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- i;
  t.head <- i;
  if t.tail < 0 then t.tail <- i

let promote t i =
  if t.head <> i then begin
    unlink t i;
    push_front t i
  end

(* a key's home bucket: multiplicative hashing keeps the high bits of
   the product, so consecutive keys spread over the table *)
let home t key = ((key * 0x1e3779b97f4a7c15) lsr 32) land t.mask

(* the bucket holding [key], or the empty bucket that ends its probe *)
let rec probe t key b =
  let i = t.table.(b) in
  if i < 0 || t.keys.(i) = key then b else probe t key ((b + 1) land t.mask)

let bucket t key = probe t key (home t key)

(* Backward-shift deletion: empty [hole], then walk the rest of its run
   and move into the hole each entry whose home is not cyclically in
   (hole, b], so no probe ever stops short of its key. *)
let rec close t hole b =
  let b = (b + 1) land t.mask in
  let i = t.table.(b) in
  if i < 0 then t.table.(hole) <- -1
  else if (b - home t t.keys.(i)) land t.mask >= (b - hole) land t.mask then begin
    t.table.(hole) <- i;
    close t b b
  end
  else close t hole b

let find t key =
  let i = t.table.(bucket t key) in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    promote t i;
    t.values.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    absent
  end

let add t key value =
  if t.capacity > 0 then begin
    let i = t.table.(bucket t key) in
    if i >= 0 then begin
      t.values.(i) <- value;
      promote t i
    end
    else begin
      let i =
        if t.len < t.capacity then begin
          let i = t.len in
          t.len <- t.len + 1;
          i
        end
        else begin
          let i = t.tail in
          let b = bucket t t.keys.(i) in
          close t b b;
          t.evictions <- t.evictions + 1;
          unlink t i;
          i
        end
      in
      t.keys.(i) <- key;
      t.values.(i) <- value;
      (* probe again: the eviction may have shifted [key]'s empty bucket *)
      t.table.(bucket t key) <- i;
      push_front t i
    end
  end

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let flush t m =
  Metrics.add_count m Cache_hits t.hits;
  Metrics.add_count m Cache_misses t.misses;
  Metrics.add_count m Cache_evictions t.evictions;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
