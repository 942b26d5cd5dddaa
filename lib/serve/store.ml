module Labeling = Repro_core.Labeling

type error =
  | Format_error of string
  | Checksum_mismatch of { what : string; index : int }

exception Error of error

let pp_error fmt = function
  | Format_error msg -> Format.fprintf fmt "store format error: %s" msg
  | Checksum_mismatch { what; index } ->
      Format.fprintf fmt "store checksum mismatch: %s %d" what index

let () =
  Printexc.register_printer (function
    | Error e -> Some (Format.asprintf "Store.Error(%a)" pp_error e)
    | _ -> None)

let err e = raise (Error e)
let fmt_err f = Printf.ksprintf (fun m -> err (Format_error m)) f

let magic = "RSRVLB02"

(* Bytes of the file header: magic, flags, n, q_size, start. *)
let header_len = String.length magic + 16

(* Structural checksum, the transport-integrity idiom: [Hashtbl.hash]
   mixes every byte of a string (strings hash in full, unlike nested
   structures which are cut off at the meaningful-word limit). [seed]
   chains checksums, so one value covers several byte ranges. *)
let crc ?(seed = 0) s = Hashtbl.seeded_hash seed s

(* A section's checksum covers the file header, the section's count,
   shard_size, npools and pool_len fields, and its anchor pool. *)
let section_crc ~header ~fields pool = crc ~seed:(crc ~seed:(crc header) fields) pool

let u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Store: u32 field overflow";
  Buffer.add_int32_le buf (Int32.of_int v)

(* ------------------------------------------------------------------ *)
(* Writing *)

let add_section buf ~header ~shard_size labels =
  let count = Array.length labels in
  let anchors_of =
    Array.map (fun la -> Array.init (Labeling.length la) (Labeling.anchor_at la)) labels
  in
  (* anchor-set pool: keyed by the encoded block so identical sets —
     one per sibling group sharing B^up — are stored once. All blocks
     share one unpadded bitstream, decoded sequentially. *)
  let pool_ids = Hashtbl.create (max 16 count) in
  let pool_w = Bitio.writer () in
  let npools = ref 0 in
  let pool_of =
    Array.map
      (fun anchors ->
        let key = Codec.encode_anchors anchors in
        match Hashtbl.find_opt pool_ids key with
        | Some id -> id
        | None ->
            let id = !npools in
            incr npools;
            Hashtbl.add pool_ids key id;
            Codec.write_anchors pool_w anchors;
            id)
      anchors_of
  in
  let pool_data = Bitio.contents pool_w in
  (* records are grouped into shards, each one unpadded bitstream with
     a single offset + checksum — per-record directories cost more
     bytes than the bit-packed records they point at *)
  let nshards = (count + shard_size - 1) / shard_size in
  let shards =
    Array.init nshards (fun s ->
        let w = Bitio.writer () in
        let lo = s * shard_size and hi = min count ((s + 1) * shard_size) in
        for i = lo to hi - 1 do
          Bitio.put_varint w pool_of.(i);
          Codec.write_body ~owner_hint:i w ~anchors:anchors_of.(i) labels.(i)
        done;
        Bitio.contents w)
  in
  let fields = Buffer.create 16 in
  List.iter (u32 fields) [ count; shard_size; !npools; String.length pool_data ];
  let fields = Buffer.contents fields in
  Buffer.add_string buf fields;
  u32 buf (section_crc ~header ~fields pool_data);
  Buffer.add_string buf pool_data;
  let off = ref 0 in
  Array.iter
    (fun sh ->
      u32 buf !off;
      off := !off + String.length sh)
    shards;
  u32 buf !off;
  Array.iter (fun sh -> u32 buf (crc sh)) shards;
  Array.iter (Buffer.add_string buf) shards

let save ?(shard_size = 64) ?cdl path dist =
  if shard_size <= 0 then invalid_arg "Store.save: shard_size must be positive";
  (match cdl with
  | Some (q_size, start, labels) ->
      if q_size <= 0 then invalid_arg "Store.save: q_size must be positive";
      if start < 0 || start >= q_size then invalid_arg "Store.save: start state out of range";
      if Array.length labels <> Array.length dist * q_size then
        invalid_arg "Store.save: cdl labels must have n * q_size entries"
  | None -> ());
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  u32 buf (match cdl with Some _ -> 1 | None -> 0);
  u32 buf (Array.length dist);
  u32 buf (match cdl with Some (q, _, _) -> q | None -> 0);
  u32 buf (match cdl with Some (_, s, _) -> s | None -> 0);
  let header = Buffer.contents buf in
  add_section buf ~header ~shard_size dist;
  (match cdl with
  | Some (_, _, labels) -> add_section buf ~header ~shard_size labels
  | None -> ());
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Reading *)

type section = {
  count : int;
  shard_size : int;
  npools : int;
  pool : string;  (* raw pool bitstream, verified at open, decoded once on first use *)
  shard_off : int array;  (* nshards + 1 offsets, relative to rec_base *)
  shard_crc : int array;
  rec_base : int;
  mutable pools : int array array option;
  shards : Labeling.t array option array;  (* decoded shards, cached *)
}

type t = {
  data : string;
  s_n : int;
  s_q : int;
  s_start : int;
  dist : section;
  cdl : section option;
}

let ru32 data pos =
  if pos < 0 || pos + 4 > String.length data then
    fmt_err "truncated: u32 at byte %d past end (%d bytes)" pos (String.length data);
  Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF

(* Reads a section's directory. Its checksum is verified before any
   field sizes an allocation, and each count is still bounded by the
   bytes that must back it, so a damaged or forged field raises
   [Error] instead of allocating from it. *)
let read_section data ~header ~index pos0 =
  let field i = ru32 data (pos0 + (4 * i)) in
  let count = field 0 and shard_size = field 1 and npools = field 2 and pool_len = field 3 in
  let pool_pos = pos0 + 20 in
  if pool_len > String.length data - pool_pos then
    fmt_err "section at %d: pool runs past end of file" pos0;
  let pool = String.sub data pool_pos pool_len in
  if section_crc ~header ~fields:(String.sub data pos0 16) pool <> field 4 then
    err (Checksum_mismatch { what = "section"; index });
  if shard_size <= 0 then fmt_err "section at %d: shard_size %d" pos0 shard_size;
  (* every anchor block takes at least one byte *)
  if npools > pool_len then fmt_err "section at %d: %d pools in %d bytes" pos0 npools pool_len;
  let nshards = (count + shard_size - 1) / shard_size in
  (* the directory: nshards + 1 offsets, then nshards checksums *)
  let dir = pool_pos + pool_len in
  let rec_base = dir + (4 * ((2 * nshards) + 1)) in
  if rec_base > String.length data then
    fmt_err "section at %d: shard directory runs past end of file" pos0;
  let shard_off = Array.init (nshards + 1) (fun s -> ru32 data (dir + (4 * s))) in
  let shard_crc = Array.init nshards (fun s -> ru32 data (dir + (4 * (nshards + 1 + s)))) in
  if shard_off.(nshards) > String.length data - rec_base then
    fmt_err "section at %d: records run past end of file" pos0;
  ( {
      count;
      shard_size;
      npools;
      pool;
      shard_off;
      shard_crc;
      rec_base;
      pools = None;
      shards = Array.make nshards None;
    },
    rec_base + shard_off.(nshards) )

let open_ path =
  let ml = String.length magic in
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* the magic is checked before the file is read, so a large
           file that is not a store costs one header read *)
        let len = in_channel_length ic in
        if len < header_len then fmt_err "file too short for header";
        if not (String.equal (really_input_string ic ml) magic) then
          fmt_err "bad magic (not a label store, or an unsupported version)";
        seek_in ic 0;
        really_input_string ic len)
  in
  let header = String.sub data 0 header_len in
  let flags = ru32 data ml in
  let s_n = ru32 data (ml + 4) in
  let s_q = ru32 data (ml + 8) in
  let s_start = ru32 data (ml + 12) in
  let has_cdl = flags land 1 <> 0 in
  let dist, pos = read_section data ~header ~index:0 header_len in
  if dist.count <> s_n then
    fmt_err "distance section has %d records, header says n=%d" dist.count s_n;
  let cdl =
    if not has_cdl then None
    else begin
      let sec, _ = read_section data ~header ~index:1 pos in
      if s_start >= s_q then fmt_err "start state %d out of range [0,%d)" s_start s_q;
      if sec.count <> s_n * s_q then
        fmt_err "cdl section has %d records, expected n*q_size=%d" sec.count (s_n * s_q);
      Some sec
    end
  in
  { data; s_n; s_q; s_start; dist; cdl }

let n t = t.s_n
let has_cdl t = Option.is_some t.cdl
let q_size t = if Option.is_some t.cdl then t.s_q else 0
let start_state t = if Option.is_some t.cdl then t.s_start else 0
let cdl_count t = match t.cdl with Some s -> s.count | None -> 0
let byte_size t = String.length t.data
let pool_count t = t.dist.npools

let pools sec =
  match sec.pools with
  | Some p -> p
  | None ->
      let r = Bitio.reader sec.pool in
      let p = Array.init sec.npools (fun _ -> Codec.read_anchors r) in
      sec.pools <- Some p;
      p

let load_shard t sec s =
  let lo = sec.shard_off.(s) and hi = sec.shard_off.(s + 1) in
  if lo > hi || sec.rec_base + hi > String.length t.data then
    fmt_err "shard %d has inverted or out-of-range offsets" s;
  let bytes = String.sub t.data (sec.rec_base + lo) (hi - lo) in
  if crc bytes <> sec.shard_crc.(s) then
    err (Checksum_mismatch { what = "shard"; index = s });
  let p = pools sec in
  let base = s * sec.shard_size in
  let k = min sec.shard_size (sec.count - base) in
  (* every record takes at least 9 bits: a pool-id varint and the owner bit *)
  if 9 * k > 8 * (hi - lo) then fmt_err "shard %d: %d records in %d bytes" s k (hi - lo);
  let r = Bitio.reader bytes in
  let arr =
    Array.init k (fun j ->
        let pool_id = Bitio.get_varint r in
        if pool_id < 0 || pool_id >= Array.length p then
          fmt_err "record %d references pool %d of %d" (base + j) pool_id (Array.length p);
        Codec.read_body ~owner_hint:(base + j) r ~anchors:p.(pool_id))
  in
  sec.shards.(s) <- Some arr;
  arr

let get_label t sec i =
  if i < 0 || i >= sec.count then fmt_err "record index %d out of range [0,%d)" i sec.count;
  let s = i / sec.shard_size in
  let arr =
    match sec.shards.(s) with
    | Some a -> a
    | None -> (
        (* the codec raises [Bitio.Truncated] on a cut-short stream and
           [Invalid_argument] on a field out of range: both mean a
           corrupt store *)
        try load_shard t sec s
        with Bitio.Truncated | Invalid_argument _ ->
          fmt_err "shard %d or its anchor pool is corrupt" s)
  in
  arr.(i - (s * sec.shard_size))

let dist_label t v = get_label t t.dist v

let cdl_label t i =
  match t.cdl with
  | Some sec -> get_label t sec i
  | None -> err (Format_error "store has no CDL section")
