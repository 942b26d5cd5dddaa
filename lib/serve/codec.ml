module Labeling = Repro_core.Labeling
module Digraph = Repro_graph.Digraph

let inf = Digraph.inf

(* Width of the field that stores another field's width. *)
let width_bits = 6

(* Each record layout is one function over a coder, so the writer and
   the reader cannot disagree on field order or widths. On a writer a
   field is put and its value returned; on a reader the value passed
   in is ignored and the stored one returned. *)
type coder = Enc of Bitio.writer | Dec of Bitio.reader

let field c ~bits v =
  match c with
  | Enc w ->
      Bitio.put w ~bits v;
      v
  | Dec r -> Bitio.get r ~bits

let varint c v =
  match c with
  | Enc w ->
      Bitio.put_varint w v;
      v
  | Dec r -> Bitio.get_varint r

let flag c b = field c ~bits:1 (if b then 1 else 0) = 1

(* A width header: the smallest width holding [m] on the writer, the
   stored width on the reader. The one guard keeps both directions
   inside [Bitio]'s 30-bit field contract; a stored width can reach
   63, so on the reader this is the corrupt-field check. *)
let width c what m =
  let bits = field c ~bits:width_bits (match c with Enc _ -> Bitio.bits_needed m | Dec _ -> 0) in
  if bits > 30 then invalid_arg (Printf.sprintf "Codec: %s width %d exceeds 30 bits" what bits);
  bits

(* Anchor block: count, first anchor as a varint, then each gap minus
   one at a single per-block width. On the writer [a] is [anchors], and
   each assignment stores the value already there. *)
let anchor_block c anchors =
  let k = varint c (Array.length anchors) in
  let a =
    match c with
    | Enc _ -> anchors
    | Dec r ->
        (* every gap takes at least one bit: bound the count by the
           stream before allocating from it *)
        if k - 1 > Bitio.bits_left r then raise Bitio.Truncated;
        Array.make k 0
  in
  if k > 0 then begin
    a.(0) <- varint c a.(0);
    if k > 1 then begin
      let max_gap = ref 1 in
      (match c with
      | Enc _ ->
          for i = 1 to k - 1 do
            let g = a.(i) - a.(i - 1) in
            if g <= 0 then invalid_arg "Codec.write_anchors: not strictly increasing";
            if g > !max_gap then max_gap := g
          done
      | Dec _ -> ());
      let wa = width c "gap" (!max_gap - 1) in
      for i = 1 to k - 1 do
        a.(i) <- a.(i - 1) + 1 + field c ~bits:wa (a.(i) - a.(i - 1) - 1)
      done
    end
  end;
  a

let write_anchors w anchors = ignore (anchor_block (Enc w) anchors)
let read_anchors r = anchor_block (Dec r) [||]

let encode_anchors anchors =
  let w = Bitio.writer () in
  write_anchors w anchors;
  Bitio.contents w

let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1
let unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* [d_from] against a finite [d_to] is stored as a zigzagged delta *)
let residual d_to d_from =
  if d_from >= inf then inf else if d_to < inf then zigzag (d_from - d_to) else d_from

(* A [bits]-wide column entry whose all-ones value stands for [inf]
   (any distance at or past [inf] means unreachable, and the reader
   restores exactly [Digraph.inf]); the writer's widths leave room for
   it above the column maximum. *)
let column c ~bits v =
  let s = (1 lsl bits) - 1 in
  let x = field c ~bits (if v >= inf then s else v) in
  if x = s then inf else x

(* Distance body: the owner (one bit when it equals [owner_hint]), then
   a [d_to] width, a symmetry bit, a residual width unless symmetric,
   and per anchor a [d_to] entry and, unless symmetric, a residual
   entry. [src] is the label to write, [None] on the reader; the label
   written or decoded is returned. *)
let body c ?owner_hint ~anchors src =
  let own = match src with Some la -> Labeling.owner la | None -> 0 in
  let owner =
    if flag c (match owner_hint with Some h -> h = own | None -> false) then
      match owner_hint with
      | Some h -> h
      | None -> invalid_arg "Codec.read_body: owner-hint bit set but no hint supplied"
    else varint c own
  in
  let la = match src with Some la -> la | None -> Labeling.create owner in
  let k = Array.length anchors in
  (* the writer reads the label's entries by position: [anchors] must
     be the label's own anchor set *)
  let mismatch () = invalid_arg "Codec.write_body: anchors differ from the label's" in
  (match c with Enc _ when k <> Labeling.length la -> mismatch () | _ -> ());
  if k > 0 then begin
    let max_to = ref 0 and max_res = ref 0 and sym = ref true in
    (match c with
    | Enc _ ->
        for i = 0 to k - 1 do
          if Labeling.anchor_at la i <> anchors.(i) then mismatch ();
          let d_to = Labeling.d_to_at la i and d_from = Labeling.d_from_at la i in
          if min d_from inf <> min d_to inf then sym := false;
          if d_to < inf && d_to > !max_to then max_to := d_to;
          let r = residual d_to d_from in
          if r < inf && r > !max_res then max_res := r
        done
    | Dec _ -> ());
    let w1 = width c "d_to" (!max_to + 1) in
    let sym = flag c !sym in
    let w2 = if sym then 0 else width c "residual" (!max_res + 1) in
    for i = 0 to k - 1 do
      let d_to = column c ~bits:w1 (match c with Enc _ -> Labeling.d_to_at la i | Dec _ -> 0) in
      let d_from =
        if sym then d_to
        else
          let d_from = match c with Enc _ -> Labeling.d_from_at la i | Dec _ -> 0 in
          let r = column c ~bits:w2 (residual d_to d_from) in
          if r >= inf then inf else if d_to < inf then d_to + unzigzag r else r
      in
      (* the anchors ascend, so every insert appends *)
      match c with Dec _ -> Labeling.set la ~anchor:anchors.(i) ~d_to ~d_from | Enc _ -> ()
    done
  end;
  la

let write_body ?owner_hint w ~anchors la = ignore (body (Enc w) ?owner_hint ~anchors (Some la))
let read_body ?owner_hint r ~anchors = body (Dec r) ?owner_hint ~anchors None

(* Whole label: its anchor block, then its body. *)
let label c src =
  let anchors =
    anchor_block c
      (match src with
      | Some la -> Array.init (Labeling.length la) (Labeling.anchor_at la)
      | None -> [||])
  in
  body c ~anchors src

let written result la =
  let w = Bitio.writer () in
  ignore (label (Enc w) (Some la));
  result w

let encode = written Bitio.contents
let encoded_bits = written Bitio.bit_length
let decode s = label (Dec (Bitio.reader s)) None
