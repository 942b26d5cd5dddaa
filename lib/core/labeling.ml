module Digraph = Repro_graph.Digraph

(* Entries [0 .. len - 1] of the three parallel arrays, sorted by
   strictly increasing anchor; the arrays' tails are spare capacity. *)
type t = {
  owner : int;
  mutable len : int;
  mutable anchor : int array;
  mutable d_to : int array;
  mutable d_from : int array;
}

let create owner = { owner; len = 0; anchor = [||]; d_to = [||]; d_from = [||] }
let owner t = t.owner
let length t = t.len

(* a position past [len] would read spare capacity *)
let at a t i = if i < t.len then a.(i) else invalid_arg "Labeling: position past the last entry"
let anchor_at t i = at t.anchor t i
let d_to_at t i = at t.d_to t i
let d_from_at t i = at t.d_from t i

(* Element-wise copies and shifts, never [Array.blit]: a label's arrays
   soon outgrow the minor heap, and blitting into a major-heap array
   runs the write barrier on every element, where a loop over an
   [int array] stores directly. *)
let copy_prefix src len cap =
  let dst = Array.make cap 0 in
  for i = 0 to len - 1 do
    dst.(i) <- src.(i)
  done;
  dst

(* room for [need] entries: at least double, so appends stay O(1)
   amortized *)
let grow t need =
  let cap = max need (max 8 (2 * Array.length t.anchor)) in
  t.anchor <- copy_prefix t.anchor t.len cap;
  t.d_to <- copy_prefix t.d_to t.len cap;
  t.d_from <- copy_prefix t.d_from t.len cap

let clear t = t.len <- 0

(* the first position whose anchor is at least [a], or [len] *)
let lower_bound t a =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.anchor.(mid) < a then lo := mid + 1 else hi := mid
  done;
  !lo

let position t a =
  let i = lower_bound t a in
  if i < t.len && t.anchor.(i) = a then i else -1

(* Min-merge: entries for the same anchor may be produced at several
   decomposition levels (and by sibling subtrees sharing the pair); every
   produced value is the length of a real walk, so keeping the
   componentwise minimum is always sound and only improves precision. *)
let set t ~anchor ~d_to ~d_from =
  let n = t.len in
  if n = 0 || t.anchor.(n - 1) < anchor then begin
    (* past the last anchor: the codec reader and SSSP's rebuild insert
       in ascending order, so they always append here *)
    if n = Array.length t.anchor then grow t (n + 1);
    t.anchor.(n) <- anchor;
    t.d_to.(n) <- d_to;
    t.d_from.(n) <- d_from;
    t.len <- n + 1
  end
  else begin
    let i = lower_bound t anchor in
    if t.anchor.(i) = anchor then begin
      if d_to < t.d_to.(i) then t.d_to.(i) <- d_to;
      if d_from < t.d_from.(i) then t.d_from.(i) <- d_from
    end
    else begin
      if n = Array.length t.anchor then grow t (n + 1);
      let a = t.anchor and dt = t.d_to and df = t.d_from in
      for k = n downto i + 1 do
        a.(k) <- a.(k - 1);
        dt.(k) <- dt.(k - 1);
        df.(k) <- df.(k - 1)
      done;
      a.(i) <- anchor;
      dt.(i) <- d_to;
      df.(i) <- d_from;
      t.len <- n + 1
    end
  end

(* A merge of two sorted runs from the back: the [k] batch entries and
   the [n] present ones land in their final slots [0 .. n + k - shared),
   so nothing is written twice and no entry is shifted more than once.
   Counting the shared anchors first gives the final length; the count
   starts at the first present anchor the batch can meet. *)
let set_sorted t ~anchors ~d_to ~d_from =
  let k = Array.length anchors in
  if Array.length d_to <> k || Array.length d_from <> k then
    invalid_arg "Labeling.set_sorted: arrays of different lengths";
  for j = 1 to k - 1 do
    if anchors.(j - 1) >= anchors.(j) then
      invalid_arg "Labeling.set_sorted: anchors do not strictly increase"
  done;
  if k > 0 then begin
    let n = t.len in
    let shared = ref 0 and i = ref (lower_bound t anchors.(0)) and j = ref 0 in
    while !i < n && !j < k do
      let a = t.anchor.(!i) and b = anchors.(!j) in
      if a < b then incr i
      else if a > b then incr j
      else begin
        incr shared;
        incr i;
        incr j
      end
    done;
    let len = n + k - !shared in
    if len > Array.length t.anchor then grow t len;
    let a = t.anchor and dt = t.d_to and df = t.d_from in
    let i = ref (n - 1) and j = ref (k - 1) and w = ref (len - 1) in
    (* once the batch is placed, [w = i]: the rest is already in place *)
    while !j >= 0 do
      let b = anchors.(!j) in
      if !i >= 0 && a.(!i) > b then begin
        a.(!w) <- a.(!i);
        dt.(!w) <- dt.(!i);
        df.(!w) <- df.(!i);
        decr i
      end
      else begin
        let t_new = d_to.(!j) and f_new = d_from.(!j) in
        if !i >= 0 && a.(!i) = b then begin
          let t_old = dt.(!i) and f_old = df.(!i) in
          a.(!w) <- b;
          dt.(!w) <- (if t_new < t_old then t_new else t_old);
          df.(!w) <- (if f_new < f_old then f_new else f_old);
          decr i
        end
        else begin
          a.(!w) <- b;
          dt.(!w) <- t_new;
          df.(!w) <- f_new
        end;
        decr j
      end;
      decr w
    done;
    t.len <- len
  end

let find t a =
  let i = position t a in
  if i < 0 then raise Not_found else (t.d_to.(i), t.d_from.(i))

let anchors t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.anchor.(i) :: !acc
  done;
  !acc

(* A merge-join of the two sorted anchor arrays. A [while] loop over
   local refs allocates nothing; a local recursive function capturing
   the arrays would allocate its closure on every call. *)
let decode la_u la_v =
  let au = la_u.anchor and to_u = la_u.d_to and nu = la_u.len in
  let av = la_v.anchor and from_v = la_v.d_from and nv = la_v.len in
  let inf = Digraph.inf in
  let best = ref inf and i = ref 0 and j = ref 0 in
  while !i < nu && !j < nv do
    let a = au.(!i) and b = av.(!j) in
    if a < b then incr i
    else if a > b then incr j
    else begin
      let d_to = to_u.(!i) and d_from = from_v.(!j) in
      if d_to < inf && d_from < inf && d_to + d_from < !best then best := d_to + d_from;
      incr i;
      incr j
    end
  done;
  !best

let size_words t = 3 * t.len

let equal a b =
  a.owner = b.owner
  && a.len = b.len
  &&
  let rec same i =
    i = a.len
    || a.anchor.(i) = b.anchor.(i)
       && a.d_to.(i) = b.d_to.(i)
       && a.d_from.(i) = b.d_from.(i)
       && same (i + 1)
  in
  same 0

let pp fmt t = Format.fprintf fmt "la(%d): %d anchors" t.owner t.len

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.owner);
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (Printf.sprintf " %d %d %d" t.anchor.(i) t.d_to.(i) t.d_from.(i))
  done;
  Buffer.contents buf
