type writer = { buf : Buffer.t; mutable acc : int; mutable used : int }

let writer () = { buf = Buffer.create 256; acc = 0; used = 0 }

let put w ~bits v =
  if bits < 0 || bits > 30 then invalid_arg "Bitio.put: width out of range";
  if v < 0 || v lsr bits <> 0 then invalid_arg "Bitio.put: value out of range";
  w.acc <- w.acc lor (v lsl w.used);
  w.used <- w.used + bits;
  while w.used >= 8 do
    Buffer.add_char w.buf (Char.chr (w.acc land 0xff));
    w.acc <- w.acc lsr 8;
    w.used <- w.used - 8
  done

let rec put_varint w v =
  if v < 0 then invalid_arg "Bitio.put_varint: negative";
  if v < 0x80 then put w ~bits:8 v
  else begin
    put w ~bits:8 (0x80 lor (v land 0x7f));
    put_varint w (v lsr 7)
  end

let bit_length w = (8 * Buffer.length w.buf) + w.used

let contents w =
  if w.used = 0 then Buffer.contents w.buf
  else Buffer.contents w.buf ^ String.make 1 (Char.chr (w.acc land 0xff))

type reader = { s : string; mutable pos : int }

exception Truncated

let reader s = { s; pos = 0 }
let bits_left r = (8 * String.length r.s) - r.pos

(* Accumulator recursion instead of refs: the serve hot loop decodes a
   label per cache miss and this must not allocate. *)
let rec get_loop r bits acc got =
  if got >= bits then acc
  else begin
    let byte = Char.code (String.unsafe_get r.s (r.pos lsr 3)) in
    let off = r.pos land 7 in
    let avail = 8 - off in
    let want = bits - got in
    let take = if want < avail then want else avail in
    let piece = (byte lsr off) land ((1 lsl take) - 1) in
    r.pos <- r.pos + take;
    get_loop r bits (acc lor (piece lsl got)) (got + take)
  end

let get r ~bits =
  if bits_left r < bits then raise Truncated;
  get_loop r bits 0 0

let rec get_varint r =
  let g = get r ~bits:8 in
  if g < 0x80 then g else (g land 0x7f) lor (get_varint r lsl 7)

let bits_needed v =
  if v < 0 then invalid_arg "Bitio.bits_needed: negative";
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  if v = 0 then 1 else go v 0
