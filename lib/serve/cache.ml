module Metrics = Repro_congest.Metrics

type t = {
  capacity : int;
  keys : int array;
  values : int array;
  prev : int array;
  next : int array;
  slot_of : (int, int) Hashtbl.t;
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
  {
    capacity;
    keys = Array.make n 0;
    values = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    slot_of = Hashtbl.create (2 * n);
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

(* Hashtbl.find (not find_opt): no [Some] box on the per-query path. *)
let find t key =
  match Hashtbl.find t.slot_of key with
  | i ->
      t.hits <- t.hits + 1;
      if t.head <> i then begin
        unlink t i;
        push_front t i
      end;
      t.values.(i)
  | exception Not_found ->
      t.misses <- t.misses + 1;
      absent

let add t key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.slot_of key with
    | Some i ->
        t.values.(i) <- value;
        if t.head <> i then begin
          unlink t i;
          push_front t i
        end
    | None ->
        let i =
          if t.len < t.capacity then begin
            let i = t.len in
            t.len <- t.len + 1;
            i
          end
          else begin
            let i = t.tail in
            Hashtbl.remove t.slot_of t.keys.(i);
            t.evictions <- t.evictions + 1;
            unlink t i;
            i
          end
        in
        t.keys.(i) <- key;
        t.values.(i) <- value;
        Hashtbl.replace t.slot_of key i;
        push_front t i

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
