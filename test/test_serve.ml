module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Metrics = Repro_congest.Metrics
module Heuristic = Repro_treedec.Heuristic
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Stateful = Repro_core.Stateful
module Cdl = Repro_core.Cdl
module Bitio = Repro_serve.Bitio
module Codec = Repro_serve.Codec
module Cache = Repro_serve.Cache
module Store = Repro_serve.Store
module Query = Repro_serve.Query
module Server = Repro_serve.Server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_path suffix =
  let path = Filename.temp_file "repro_serve_test" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* Bitio *)

let test_bitio_fields () =
  let w = Bitio.writer () in
  Bitio.put w ~bits:3 5;
  Bitio.put w ~bits:1 0;
  Bitio.put w ~bits:13 4097;
  Bitio.put_varint w 0;
  Bitio.put_varint w 300;
  Bitio.put_varint w 123_456_789;
  let r = Bitio.reader (Bitio.contents w) in
  check_int "3-bit field" 5 (Bitio.get r ~bits:3);
  check_int "1-bit field" 0 (Bitio.get r ~bits:1);
  check_int "13-bit field" 4097 (Bitio.get r ~bits:13);
  check_int "varint 0" 0 (Bitio.get_varint r);
  check_int "varint 300" 300 (Bitio.get_varint r);
  check_int "varint large" 123_456_789 (Bitio.get_varint r);
  check_bool "truncated read raises" true
    (try
       ignore (Bitio.get r ~bits:30);
       false
     with Bitio.Truncated -> true)

let test_bitio_boundaries () =
  (* widest legal field, all ones *)
  let top = (1 lsl 30) - 1 in
  let w = Bitio.writer () in
  Bitio.put w ~bits:30 top;
  Bitio.put w ~bits:30 0;
  Bitio.put_varint w max_int;
  let r = Bitio.reader (Bitio.contents w) in
  check_int "30-bit all-ones" top (Bitio.get r ~bits:30);
  check_int "30-bit zero" 0 (Bitio.get r ~bits:30);
  check_int "varint max_int" max_int (Bitio.get_varint r);
  (* a 31-bit width is out of contract on both sides *)
  check_bool "put rejects 31 bits" true
    (try
       Bitio.put (Bitio.writer ()) ~bits:31 0;
       false
     with Invalid_argument _ -> true);
  check_bool "put rejects oversized value" true
    (try
       Bitio.put (Bitio.writer ()) ~bits:4 16;
       false
     with Invalid_argument _ -> true)

let test_bitio_unaligned_contents () =
  (* 3 + 7 + 11 = 21 bits: contents must flush the partial last byte *)
  let w = Bitio.writer () in
  Bitio.put w ~bits:3 5;
  Bitio.put w ~bits:7 99;
  Bitio.put w ~bits:11 1_234;
  let s = Bitio.contents w in
  check_int "21 bits pack into 3 bytes" 3 (String.length s);
  let r = Bitio.reader s in
  check_int "3-bit field" 5 (Bitio.get r ~bits:3);
  check_int "7-bit field" 99 (Bitio.get r ~bits:7);
  check_int "11-bit field" 1_234 (Bitio.get r ~bits:11)

let test_codec_zigzag_extremes () =
  (* the asymmetry delta d_from - d_to rides a zigzag field; push it to
     the widest value the 30-bit field contract admits, both signs *)
  let big = (1 lsl 29) - 1 in
  let la = Labeling.create 0 in
  Labeling.set la ~anchor:1 ~d_to:0 ~d_from:big;
  Labeling.set la ~anchor:2 ~d_to:big ~d_from:0;
  Labeling.set la ~anchor:3 ~d_to:big ~d_from:big;
  check_bool "zigzag extremes roundtrip" true
    (Labeling.equal la (Codec.decode (Codec.encode la)))

let prop_bitio_roundtrip =
  QCheck.Test.make ~name:"bitio field sequences roundtrip" ~count:200
    QCheck.(small_list (pair (int_range 1 24) small_nat))
    (fun fields ->
      let fields = List.map (fun (bits, v) -> (bits, v land ((1 lsl bits) - 1))) fields in
      let w = Bitio.writer () in
      List.iter (fun (bits, v) -> Bitio.put w ~bits v) fields;
      let r = Bitio.reader (Bitio.contents w) in
      List.for_all (fun (bits, v) -> Bitio.get r ~bits = v) fields)

(* ------------------------------------------------------------------ *)
(* Labeling: the sorted arrays against the hashtable model *)

(* The label as it was stored before the sorted arrays: a hashtable
   from anchor to its distance pair, every operation written the
   obvious way. It is the reference model of the property below. *)
module Ref_label = struct
  type t = { owner : int; entries : (int, int * int) Hashtbl.t }

  let create owner = { owner; entries = Hashtbl.create 16 }

  let set t ~anchor ~d_to ~d_from =
    match Hashtbl.find_opt t.entries anchor with
    | Some (dt, df) -> Hashtbl.replace t.entries anchor (min dt d_to, min df d_from)
    | None -> Hashtbl.replace t.entries anchor (d_to, d_from)

  let find t anchor = Hashtbl.find_opt t.entries anchor

  let anchors t = List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) t.entries [])

  let decode la_u la_v =
    Hashtbl.fold
      (fun anchor (d_to, _) best ->
        match Hashtbl.find_opt la_v.entries anchor with
        | Some (_, d_from) when d_to < Digraph.inf && d_from < Digraph.inf ->
            min best (d_to + d_from)
        | _ -> best)
      la_u.entries Digraph.inf

  let size_words t = 3 * Hashtbl.length t.entries

  let equal a b =
    a.owner = b.owner
    && Hashtbl.length a.entries = Hashtbl.length b.entries
    && List.for_all (fun x -> find a x = find b x) (anchors a)

  let to_string t =
    String.concat " "
      (string_of_int t.owner
      :: List.map
           (fun a ->
             let d_to, d_from = Hashtbl.find t.entries a in
             Printf.sprintf "%d %d %d" a d_to d_from)
           (anchors t))
end

type set_order = Ascending | Descending | Shuffled

(* Each case is a few labels, each given by an owner and a list of
   [set] calls: anchors from a small range, so labels share some and
   repeat some (min-merge); distances [inf] one time in four. Every
   label is built twice with [set], from its calls in two orders, so
   [equal] also meets pairs that must be equal, and a third time with
   [set_sorted] batches (see [in_batches]), dealt by the drawn batch
   numbers. *)
let arbitrary_set_sequences =
  let open QCheck in
  let dist = Gen.(frequency [ (1, return Digraph.inf); (3, int_range 0 60) ]) in
  let order = Gen.oneofl [ Ascending; Descending; Shuffled ] in
  let label =
    Gen.(
      pair
        (quad (int_range 0 2)
           (list_size (int_range 0 24) (triple (int_range 0 30) dist dist))
           order order)
        (list_size (int_range 0 24) (int_range 0 3)))
  in
  let print ((owner, calls, o1, o2), deal) =
    let name = function Ascending -> "asc" | Descending -> "desc" | Shuffled -> "shuffled" in
    Printf.sprintf "owner %d, %s then %s, batches [%s]: %s" owner (name o1) (name o2)
      (String.concat " " (List.map string_of_int deal))
      (String.concat "; "
         (List.map (fun (a, t, f) -> Printf.sprintf "%d %d %d" a t f) calls))
  in
  make ~print:(Print.list print) Gen.(list_size (int_range 1 4) label)

let in_order order calls =
  let by_anchor (a, _, _) (b, _, _) = Int.compare a b in
  match order with
  | Ascending -> List.stable_sort by_anchor calls
  | Descending -> List.stable_sort (fun x y -> by_anchor y x) calls
  | Shuffled -> calls

(* The calls in ascending order, dealt into batches 0 to 3 ([deal]
   gives the batch of the i-th; past its end, batch 0), each batch cut
   into strictly increasing runs where an anchor repeats: the runs of
   one batch follow each other, and a later batch's runs interleave
   with what the earlier ones installed. An empty batch is one empty
   run. *)
let in_batches calls deal =
  let sorted = in_order Ascending calls in
  let batch_of i = match List.nth_opt deal i with Some k -> k | None -> 0 in
  List.concat_map
    (fun k ->
      let batch = List.filteri (fun i _ -> batch_of i = k) sorted in
      let runs =
        List.fold_left
          (fun runs ((a, _, _) as call) ->
            match runs with
            | ((b, _, _) :: _ as run) :: rest when b < a -> (call :: run) :: rest
            | _ -> [ call ] :: runs)
          [] batch
      in
      match runs with
      | [] -> [ [||] ]
      | _ -> List.rev_map (fun run -> Array.of_list (List.rev run)) runs)
    [ 0; 1; 2; 3 ]

let prop_labeling_model =
  QCheck.Test.make ~name:"labels: sorted arrays = hashtable model" ~count:500
    ~long_factor:200 arbitrary_set_sequences (fun specs ->
      let built =
        List.concat_map
          (fun ((owner, calls, o1, o2), deal) ->
            let model calls =
              let rf = Ref_label.create owner in
              List.iter
                (fun (anchor, d_to, d_from) -> Ref_label.set rf ~anchor ~d_to ~d_from)
                calls;
              rf
            in
            let batched = Labeling.create owner in
            List.iter
              (fun run ->
                Labeling.set_sorted batched
                  ~anchors:(Array.map (fun (a, _, _) -> a) run)
                  ~d_to:(Array.map (fun (_, t, _) -> t) run)
                  ~d_from:(Array.map (fun (_, _, f) -> f) run))
              (in_batches calls deal);
            (batched, model calls)
            :: List.map
                 (fun order ->
                   let la = Labeling.create owner in
                   List.iter
                     (fun (anchor, d_to, d_from) -> Labeling.set la ~anchor ~d_to ~d_from)
                     (in_order order calls);
                   (la, model (in_order order calls)))
                 [ o1; o2 ])
          specs
      in
      let agrees (la, rf) =
        (* every anchor in range, present or absent, and two outside it *)
        let lookups_agree a =
          let p = Labeling.position la a in
          let found = match Labeling.find la a with d -> Some d | exception Not_found -> None in
          found = Ref_label.find rf a
          && (p < 0) = (found = None)
          && (p < 0 || Some (Labeling.d_to_at la p, Labeling.d_from_at la p) = found)
        in
        Labeling.anchors la = Ref_label.anchors rf
        && List.init (Labeling.length la) (Labeling.anchor_at la) = Ref_label.anchors rf
        && (match Labeling.d_to_at la (Labeling.length la) with
           | _ -> false
           | exception Invalid_argument _ -> true)
        && Labeling.size_words la = Ref_label.size_words rf
        && String.equal (Labeling.to_string la) (Ref_label.to_string rf)
        && List.for_all lookups_agree (List.init 33 (fun a -> a - 1))
      in
      List.for_all agrees built
      && List.for_all
           (fun (la, rf) ->
             List.for_all
               (fun (lb, rg) ->
                 Labeling.decode la lb = Ref_label.decode rf rg
                 && Labeling.equal la lb = Ref_label.equal rf rg)
               built)
           built)

(* a batch that does not strictly increase is refused whole *)
let test_set_sorted_rejects_unsorted () =
  let la = Labeling.create 0 in
  Labeling.set la ~anchor:4 ~d_to:1 ~d_from:2;
  let before = Labeling.to_string la in
  List.iter
    (fun anchors ->
      let zeros = Array.make (Array.length anchors) 0 in
      Alcotest.check_raises "Invalid_argument"
        (Invalid_argument "Labeling.set_sorted: anchors do not strictly increase") (fun () ->
          Labeling.set_sorted la ~anchors ~d_to:zeros ~d_from:zeros);
      Alcotest.(check string) "label unchanged" before (Labeling.to_string la))
    [ [| 1; 3; 3 |]; [| 5; 2 |] ]

(* ------------------------------------------------------------------ *)
(* Codec: encode . decode = id *)

let arbitrary_label =
  let open QCheck in
  let dist_gen =
    Gen.(oneof [ return Repro_graph.Digraph.inf; int_range 0 50_000 ])
  in
  let gen =
    Gen.(
      pair (int_range 0 10_000) (small_list (triple (int_range 0 5_000) dist_gen dist_gen))
      |> map (fun (owner, entries) ->
             let la = Labeling.create owner in
             List.iter
               (fun (anchor, d_to, d_from) -> Labeling.set la ~anchor ~d_to ~d_from)
               entries;
             la))
  in
  QCheck.make ~print:(Format.asprintf "%a" Labeling.pp) gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"binary codec: decode (encode la) = la" ~count:300 arbitrary_label
    (fun la -> Labeling.equal la (Codec.decode (Codec.encode la)))

let test_codec_inf_and_empty () =
  let empty = Labeling.create 3 in
  check_bool "empty label" true (Labeling.equal empty (Codec.decode (Codec.encode empty)));
  let la = Labeling.create 0 in
  Labeling.set la ~anchor:7 ~d_to:Digraph.inf ~d_from:Digraph.inf;
  Labeling.set la ~anchor:9 ~d_to:0 ~d_from:Digraph.inf;
  Labeling.set la ~anchor:11 ~d_to:Digraph.inf ~d_from:4;
  check_bool "inf sentinel fields" true (Labeling.equal la (Codec.decode (Codec.encode la)));
  check_bool "bit length positive" true (Codec.encoded_bits la > 0)

(* ------------------------------------------------------------------ *)
(* Binary store *)

let small_graph seed n =
  Generators.bidirect ~seed ~max_weight:9 (Generators.partial_k_tree ~seed n 3 ~keep:0.6)

let build_labels g = Dl.build g (Heuristic.min_fill g) ~metrics:(Metrics.create ())

let test_store_roundtrip () =
  let g = small_graph 11 40 in
  let labels = build_labels g in
  let path = temp_path ".bin" in
  Store.save ~shard_size:8 path labels;
  let st = Store.open_ path in
  check_int "n" (Array.length labels) (Store.n st);
  check_bool "no cdl" true (not (Store.has_cdl st));
  check_bool "pool dedups" true (Store.pool_count st <= Store.n st);
  Array.iteri
    (fun i la -> check_bool "label equal" true (Labeling.equal la (Store.dist_label st i)))
    labels;
  (* served answers = Dijkstra oracle, via the query engine *)
  let src = Query.of_store st in
  let n = Digraph.n g in
  for u = 0 to n - 1 do
    let d = Shortest_path.dijkstra g u in
    for v = 0 to n - 1 do
      check_int "DIST = oracle" d.(v) (Query.answer src (Query.Dist { u; v }))
    done
  done

(* A label file in the retired text format (one [Labeling.to_string]
   line per label) is refused by the magic check, never parsed. *)
let test_text_file_rejected () =
  let labels = build_labels (small_graph 3 24) in
  let path = temp_path ".txt" in
  let oc = open_out path in
  Array.iter (fun la -> output_string oc (Labeling.to_string la ^ "\n")) labels;
  close_out oc;
  match Store.open_ path with
  | _ -> Alcotest.fail "text label file opened as a store"
  | exception Store.Error (Store.Format_error msg) ->
      check_bool "bad magic" true
        (String.length msg >= 9 && String.equal (String.sub msg 0 9) "bad magic")

(* the >=4x acceptance gate runs on the E2b instances exactly as the
   bench builds them: distributed decomposition, not min-fill *)
let test_store_smaller_than_text () =
  List.iter
    (fun g ->
      let report = Build.decompose ~seed:2 g ~metrics:(Metrics.create ()) in
      let labels = Dl.build g report.Build.decomposition ~metrics:(Metrics.create ()) in
      let bin = temp_path ".bin" in
      Store.save bin labels;
      let bin_size = Store.byte_size (Store.open_ bin) in
      (* one [Labeling.to_string] line per label *)
      let txt_size =
        Array.fold_left (fun acc la -> acc + String.length (Labeling.to_string la) + 1) 0 labels
      in
      check_bool
        (Printf.sprintf "binary %dB >= 4x smaller than text %dB" bin_size txt_size)
        true
        (bin_size * 4 <= txt_size))
    [ small_graph 96 96; Generators.wheel 96 ]

let count_spec = Stateful.count ~limit:1

let labeled_graph seed n =
  let g = small_graph seed n in
  Digraph.with_labels g (fun e -> Hashtbl.hash (e.Digraph.id, seed) mod 2)

let test_store_cdl_roundtrip () =
  let g = labeled_graph 7 24 in
  let cdl = Cdl.build ~seed:7 g count_spec ~metrics:(Metrics.create ()) in
  let labels = build_labels g in
  let path = temp_path ".bin" in
  Store.save path labels ~cdl:(count_spec.Stateful.q_size, count_spec.Stateful.start, Cdl.labels cdl);
  let st = Store.open_ path in
  check_bool "has cdl" true (Store.has_cdl st);
  check_int "q_size" count_spec.Stateful.q_size (Store.q_size st);
  check_int "start" count_spec.Stateful.start (Store.start_state st);
  check_int "cdl records" (Digraph.n g * count_spec.Stateful.q_size) (Store.cdl_count st);
  let src = Query.of_store st in
  let n = Digraph.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      for q = 0 to count_spec.Stateful.q_size - 1 do
        check_int "CDL = in-memory sdec" (Cdl.sdec cdl ~q ~src:u ~dst:v)
          (Query.answer src (Query.Cdl { u; v; q }))
      done
    done
  done

let test_store_rejects_corruption () =
  let g = small_graph 13 32 in
  let labels = build_labels g in
  let path = temp_path ".bin" in
  Store.save path labels;
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* flip a bit in the last record's bytes (record data ends the file) *)
  let flipped = Bytes.of_string data in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0x10));
  let corrupt = temp_path ".bin" in
  let oc = open_out_bin corrupt in
  output_bytes oc flipped;
  close_out oc;
  let st = Store.open_ corrupt in
  let tripped = ref false in
  (try
     for v = 0 to Store.n st - 1 do
       ignore (Store.dist_label st v)
     done
   with Store.Error (Store.Checksum_mismatch { what; _ }) ->
     check_bool "shard checksum" true (String.equal what "shard");
     tripped := true);
  check_bool "corrupted byte detected, not served" true !tripped;
  (* bad magic is a format error, not garbage *)
  let bad = temp_path ".bin" in
  let oc = open_out_bin bad in
  output_string oc "NOTASTORE";
  close_out oc;
  check_bool "bad magic rejected" true
    (try
       ignore (Store.open_ bad);
       false
     with Store.Error (Store.Format_error _) -> true)

let test_store_rejects_index_corruption () =
  let g = small_graph 17 32 in
  let labels = build_labels g in
  let path = temp_path ".bin" in
  Store.save ~shard_size:4 path labels;
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* flip a byte in the record index: offsets live right after the pool,
     so corrupt a byte ~40% into the file, before record data *)
  let flipped = Bytes.of_string data in
  let target = Bytes.length flipped * 2 / 5 in
  Bytes.set flipped target (Char.chr (Char.code (Bytes.get flipped target) lxor 0x01));
  let corrupt = temp_path ".bin" in
  let oc = open_out_bin corrupt in
  output_bytes oc flipped;
  close_out oc;
  (* open may already reject (truncation); if it opens, every label read
     must either succeed with the exact original label or raise Error *)
  match Store.open_ corrupt with
  | exception Store.Error _ -> ()
  | st ->
      Array.iteri
        (fun i la ->
          match Store.dist_label st i with
          | la' -> check_bool "surviving label is exact" true (Labeling.equal la la')
          | exception Store.Error _ -> ())
        labels

(* ------------------------------------------------------------------ *)
(* Damaged stores: every decode failure is a [Store.Error] *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_store path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF
let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

(* A saved store's byte layout, parsed independently of [Store]: the
   24-byte file header, then per section five u32 fields (count,
   shard_size, npools, pool_len, checksum), the anchor pool, nshards+1
   shard offsets, nshards shard checksums, and the shard payloads. *)
type section_layout = {
  sec : int;
  pool_len : int;
  dir : int;
  nshards : int;
  records : int;
  offsets : int array;
}

let layout data =
  let section sec =
    let count = get_u32 data sec and shard_size = get_u32 data (sec + 4) in
    let pool_len = get_u32 data (sec + 12) in
    let nshards = (count + shard_size - 1) / shard_size in
    let dir = sec + 20 + pool_len in
    let offsets = Array.init (nshards + 1) (fun s -> get_u32 data (dir + (4 * s))) in
    { sec; pool_len; dir; nshards; records = dir + (4 * ((2 * nshards) + 1)); offsets }
  in
  let dist = section 24 in
  if get_u32 data 8 land 1 = 0 then [ dist ]
  else [ dist; section (dist.records + dist.offsets.(dist.nshards)) ]

(* Checksums recomputed the way [Store.save] computes them, to model a
   writer that emits well-checksummed but structurally bad bytes: a
   shard's covers its payload; a section's chains the file header, the
   section's four count fields and its anchor pool. *)
let rehash_shard b l s =
  let lo = l.records + l.offsets.(s) and hi = l.records + l.offsets.(s + 1) in
  set_u32 b (l.dir + (4 * (l.nshards + 1 + s))) (Hashtbl.hash (Bytes.sub_string b lo (hi - lo)))

let rehash_section b l =
  let seed = Hashtbl.seeded_hash (Hashtbl.hash (Bytes.sub_string b 0 24)) (Bytes.sub_string b l.sec 16) in
  set_u32 b (l.sec + 16) (Hashtbl.seeded_hash seed (Bytes.sub_string b (l.sec + 20) l.pool_len))

let wheel_store () =
  let path = temp_path ".bin" in
  Store.save path (build_labels (Generators.wheel 64));
  (path, read_file path)

(* [f] must raise [Store.Error] having allocated less than [limit]
   bytes: a damaged count may not size an allocation *)
let rejects_within ~limit what f =
  let before = Gc.allocated_bytes () in
  let raised = match f () with _ -> false | exception Store.Error _ -> true in
  check_bool (what ^ ": raises Store.Error") true raised;
  let used = Gc.allocated_bytes () -. before in
  check_bool (Printf.sprintf "%s: allocated %.0f bytes, limit %d" what used limit) true
    (used < float_of_int limit)

let test_store_width_guard () =
  let path, data = wheel_store () in
  let l = List.hd (layout data) in
  let b = Bytes.of_string data in
  (* record 0 opens shard 0: an 8-bit pool-id varint, the owner bit,
     then the 6-bit d_to width at bits 9..14, here set to 63 *)
  let at = l.records + 1 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lor 0x7e));
  rehash_shard b l 0;
  write_store path (Bytes.to_string b);
  let st = Store.open_ path in
  check_bool "corrupt width raises Format_error" true
    (match Store.dist_label st 0 with
    | _ -> false
    | exception Store.Error (Store.Format_error _) -> true)

let test_store_directory_count () =
  let path, data = wheel_store () in
  let limit = 64 * String.length data in
  let l = List.hd (layout data) in
  List.iter
    (fun forged ->
      let b = Bytes.of_string data in
      set_u32 b l.sec (get_u32 data l.sec lor (1 lsl 31));
      if forged then rehash_section b l;
      write_store path (Bytes.to_string b);
      rejects_within ~limit
        (if forged then "forged count" else "damaged count")
        (fun () -> Store.open_ path))
    [ false; true ]

let test_store_pool_counts () =
  let path, data = wheel_store () in
  let limit = 64 * String.length data in
  let l = List.hd (layout data) in
  let lookups what =
    rejects_within ~limit what (fun () ->
        let st = Store.open_ path in
        (* a failed pool decode fails every lookup, not only the first *)
        (try ignore (Store.dist_label st 0) with Store.Error _ -> ());
        Store.dist_label st 1)
  in
  (* npools gains bit 22: an unchecked count then sizes a 32 MB array
     (the top bit asks for 16 GB) *)
  List.iter
    (fun forged ->
      let b = Bytes.of_string data in
      set_u32 b (l.sec + 8) (get_u32 data (l.sec + 8) lor (1 lsl 22));
      if forged then rehash_section b l;
      write_store path (Bytes.to_string b);
      lookups (if forged then "forged npools" else "damaged npools"))
    [ false; true ];
  (* the first anchor block's count becomes the varint 2^28 - 1, which
     sizes the decoder's anchor array *)
  let b = Bytes.of_string data in
  Bytes.blit_string "\xff\xff\xff\x7f" 0 b (l.sec + 20) 4;
  rehash_section b l;
  write_store path (Bytes.to_string b);
  lookups "forged anchor count"

(* A large file that is not a store fails the magic check before its
   bytes are read: opening it allocates a header's worth, not the file. *)
let test_store_magic_before_read () =
  let path = temp_path ".bin" in
  let oc = open_out_bin path in
  output_string oc (String.make (4 * 1024 * 1024) 'x');
  close_out oc;
  let before = Gc.allocated_bytes () in
  let error =
    match Store.open_ path with
    | _ -> None
    | exception Store.Error (Store.Format_error msg) -> Some msg
  in
  let grown = Gc.allocated_bytes () -. before in
  (match error with
  | None -> Alcotest.fail "4 MiB of non-store bytes opened as a store"
  | Some msg ->
      check_bool "bad magic" true
        (String.length msg >= 9 && String.equal (String.sub msg 0 9) "bad magic"));
  check_bool
    (Printf.sprintf "open_ allocated %.0f KiB, under 64 KiB" (grown /. 1024.))
    true (grown < 65536.)

let test_store_header_checksum () =
  let g = Digraph.with_labels (Generators.wheel 24) (fun e -> e.Digraph.id mod 2) in
  let cdl = Cdl.build ~seed:3 g count_spec ~metrics:(Metrics.create ()) in
  let path = temp_path ".bin" in
  Store.save path (build_labels g)
    ~cdl:(count_spec.Stateful.q_size, count_spec.Stateful.start, Cdl.labels cdl);
  let data = read_file path in
  let refused what b =
    write_store path (Bytes.to_string b);
    check_bool (what ^ " refused at open") true
      (match Store.open_ path with _ -> false | exception Store.Error _ -> true)
  in
  let flip pos bit =
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    b
  in
  (* the start state 1 -> 0: served CDL answers would start from the
     wrong DFA state *)
  refused "start-state flip" (flip 20 0);
  (* flags 0: the CDL section would silently vanish *)
  let b = Bytes.of_string data in
  set_u32 b 8 0;
  refused "cleared flags" b;
  (* every bit of the file header and of each section's count fields *)
  let fields = List.concat_map (fun l -> List.init 16 (fun i -> l.sec + i)) (layout data) in
  List.iter
    (fun pos ->
      for bit = 0 to 7 do
        refused (Printf.sprintf "byte %d bit %d" pos bit) (flip pos bit)
      done)
    (List.init 24 Fun.id @ fields)

(* Store fuzzer: damage (not forgery: no checksum is recomputed) either
   makes [open_] raise [Store.Error], or leaves every DIST and CDL answer
   equal to the undamaged store's or raising [Store.Error]. *)

type mutation =
  | Flips of int list  (** bit positions *)
  | Truncate of int  (** new length *)
  | Swap of int * int * int  (** section, two shards *)
  | Poke of int * int  (** byte position of a header or directory field, u32 *)

let pp_mutation = function
  | Flips bits -> "flip bits " ^ String.concat "," (List.map string_of_int bits)
  | Truncate k -> Printf.sprintf "truncate to %d bytes" k
  | Swap (s, i, j) -> Printf.sprintf "swap shards %d and %d of section %d" i j s
  | Poke (pos, v) -> Printf.sprintf "write %#x at byte %d" v pos

let mutate data = function
  | Flips bits ->
      let b = Bytes.of_string data in
      List.iter
        (fun i ->
          Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8)))))
        bits;
      Bytes.to_string b
  | Truncate k -> String.sub data 0 k
  | Swap (s, i, j) ->
      let l = List.nth (layout data) s in
      let payload k =
        String.sub data (l.records + l.offsets.(k)) (l.offsets.(k + 1) - l.offsets.(k))
      in
      let stop = l.records + l.offsets.(l.nshards) in
      String.concat ""
        ([ String.sub data 0 l.records ]
        @ List.init l.nshards (fun k -> payload (if k = i then j else if k = j then i else k))
        @ [ String.sub data stop (String.length data - stop) ])
  | Poke (pos, v) ->
      let b = Bytes.of_string data in
      set_u32 b pos v;
      Bytes.to_string b

let fuzz_fixture =
  lazy
    (let g = labeled_graph 43 12 in
     let n = Digraph.n g and q_size = count_spec.Stateful.q_size in
     let cdl = Cdl.build ~seed:43 g count_spec ~metrics:(Metrics.create ()) in
     let path = temp_path ".bin" in
     Store.save ~shard_size:4 path (build_labels g)
       ~cdl:(q_size, count_spec.Stateful.start, Cdl.labels cdl);
     let queries =
       List.init (n * n) (fun i -> Query.Dist { u = i / n; v = i mod n })
       @ List.init (n * n * q_size) (fun i ->
             Query.Cdl { u = i / (n * q_size); v = i / q_size mod n; q = i mod q_size })
       |> Array.of_list
     in
     let src = Query.of_store (Store.open_ path) in
     let answers = Array.map (Query.answer src) queries in
     let dij = Array.init n (Shortest_path.dijkstra g) in
     Array.iteri
       (fun i q ->
         let oracle =
           match q with
           | Query.Dist { u; v } -> dij.(u).(v)
           | Query.Cdl { u; v; q } -> Cdl.sdec cdl ~q ~src:u ~dst:v
         in
         check_int "undamaged store = oracle" oracle answers.(i))
       queries;
     (read_file path, queries, answers, temp_path ".bin"))

let arbitrary_mutation =
  let gen =
    QCheck.Gen.(
      delay (fun () ->
          let data, _, _, _ = Lazy.force fuzz_fixture in
          let len = String.length data and sections = layout data in
          let fields =
            [ 0; 4; 8; 12; 16; 20 ]
            @ List.concat_map
                (fun l ->
                  List.init 5 (fun i -> l.sec + (4 * i))
                  @ List.init ((2 * l.nshards) + 1) (fun i -> l.dir + (4 * i)))
                sections
          in
          let u32 = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff) in
          frequency
            [
              (4, map (fun bits -> Flips bits) (list_size (int_range 1 4) (int_bound ((8 * len) - 1))));
              (1, map (fun k -> Truncate k) (int_bound (len - 1)));
              ( 1,
                int_bound (List.length sections - 1) >>= fun s ->
                let ns = (List.nth sections s).nshards in
                map2 (fun i d -> Swap (s, i, (i + 1 + d) mod ns)) (int_bound (ns - 1)) (int_bound (ns - 2)) );
              (2, map2 (fun pos v -> Poke (pos, v)) (oneofl fields) u32);
            ]))
  in
  QCheck.make ~print:pp_mutation gen

let prop_store_fuzz =
  QCheck.Test.make ~name:"damaged store: Store.Error or the undamaged answer" ~count:2000
    ~long_factor:50 arbitrary_mutation (fun m ->
      let data, queries, answers, damaged = Lazy.force fuzz_fixture in
      write_store damaged (mutate data m);
      match Store.open_ damaged with
      | exception Store.Error _ -> true
      | st ->
          let src = Query.of_store st in
          Array.for_all2
            (fun q a ->
              match Query.answer src q with a' -> a' = a | exception Store.Error _ -> true)
            queries answers)

(* ------------------------------------------------------------------ *)
(* Golden codec bytes: MD5 digests of the codec's output on fixed-seed
   DL and count:1 CDL labels, captured before the codec was rewritten
   as one description per record. The store file itself is not
   digested, because its header and checksums change with the format
   version. A change to label construction changes the inputs: re-capture
   the digests then with the codec untouched. *)

let golden =
  [
    (* weighted directed partial k-tree: asymmetric bodies, and CDL
       labels with infinity sentinels *)
    ( "ptk",
      labeled_graph 41 40,
      "7dcf1a9170ffb29fd0e00929d5318c0d",
      "7029e67f93ecf962e48f452317c3982a" );
    (* wheel: symmetric bodies *)
    ( "wheel",
      Digraph.with_labels (Generators.wheel 24) (fun e -> e.Digraph.id mod 2),
      "de4760e01ab4013108ff213bc46a88c0",
      "fc0bec804918d974dff2ca1e0e767f7d" );
  ]

let test_codec_golden () =
  let inf_entry = ref false and asym = ref false and sym = ref false in
  List.iter
    (fun (name, g, d_whole, d_streamed) ->
      let cdl = Cdl.build ~seed:5 g count_spec ~metrics:(Metrics.create ()) in
      let sets = [ build_labels g; Cdl.labels cdl ] in
      Array.iter
        (fun la ->
          let ds = List.map (Labeling.find la) (Labeling.anchors la) in
          if List.exists (fun (t, f) -> t = Digraph.inf || f = Digraph.inf) ds then
            inf_entry := true;
          if List.exists (fun (t, f) -> t <> f) ds then asym := true
          else if ds <> [] then sym := true)
        (Array.concat sets);
      let whole =
        String.concat "" (List.concat_map (fun ls -> Array.to_list (Array.map Codec.encode ls)) sets)
      in
      let in_store_order ls =
        let w = Bitio.writer () in
        Array.iteri
          (fun i la ->
            let anchors = Array.of_list (Labeling.anchors la) in
            Codec.write_anchors w anchors;
            Codec.write_body ~owner_hint:i w ~anchors la)
          ls;
        Bitio.contents w
      in
      let streamed = String.concat "" (List.map in_store_order sets) in
      let hex s = Digest.to_hex (Digest.string s) in
      Alcotest.(check string) (name ^ ": encode digest") d_whole (hex whole);
      Alcotest.(check string) (name ^ ": store-order stream digest") d_streamed (hex streamed))
    golden;
  check_bool "covers infinity sentinels" true !inf_entry;
  check_bool "covers asymmetric bodies" true !asym;
  check_bool "covers symmetric bodies" true !sym

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_lru () =
  let c = Cache.create 2 in
  check_int "miss on empty" Cache.absent (Cache.find c 1);
  Cache.add c 1 100;
  Cache.add c 2 200;
  check_int "hit 1" 100 (Cache.find c 1);
  (* 1 is now most-recent; adding 3 evicts 2 *)
  Cache.add c 3 300;
  check_int "2 evicted" Cache.absent (Cache.find c 2);
  check_int "1 kept" 100 (Cache.find c 1);
  check_int "3 kept" 300 (Cache.find c 3);
  check_int "hits" 3 (Cache.hits c);
  check_int "misses" 2 (Cache.misses c);
  check_int "evictions" 1 (Cache.evictions c);
  let m = Metrics.create () in
  Cache.flush c m;
  check_int "metrics hits" 3 (Metrics.get m Cache_hits);
  check_int "metrics misses" 2 (Metrics.get m Cache_misses);
  check_int "metrics evictions" 1 (Metrics.get m Cache_evictions);
  check_int "counters reset" 0 (Cache.hits c)

let test_cache_update_refreshes () =
  let c = Cache.create 2 in
  Cache.add c 1 10;
  Cache.add c 2 20;
  Cache.add c 1 11;
  (* refresh 1: now 2 is least-recent *)
  Cache.add c 3 30;
  check_int "2 evicted" Cache.absent (Cache.find c 2);
  check_int "1 updated" 11 (Cache.find c 1);
  check_int "3 present" 30 (Cache.find c 3)

let test_cache_disabled () =
  let c = Cache.create 0 in
  Cache.add c 1 10;
  check_int "capacity 0 never caches" Cache.absent (Cache.find c 1);
  check_int "no evictions" 0 (Cache.evictions c)

let test_cached_answers_match_uncached () =
  let g = small_graph 19 32 in
  let labels = build_labels g in
  let path = temp_path ".bin" in
  Store.save path labels;
  let src = Query.of_store (Store.open_ path) in
  let cache = Cache.create 64 in
  let n = Digraph.n g in
  for pass = 1 to 2 do
    ignore pass;
    for u = 0 to n - 1 do
      let q = Query.Dist { u; v = (u + 7) mod n } in
      check_int "cached = uncached" (Query.answer src q) (Query.answer ~cache src q)
    done
  done;
  check_bool "second pass hits" true (Cache.hits cache > 0)

type cache_op = Find of int | Add of int * int

(* The reference LRU: (key, value) pairs, most recent first. *)
let model_find model k =
  match List.assoc_opt k !model with
  | Some v ->
      model := (k, v) :: List.remove_assoc k !model;
      Some v
  | None -> None

(* the number of entries evicted: 0 or 1 *)
let model_add ~capacity model k v =
  if capacity = 0 then 0
  else if List.mem_assoc k !model then begin
    model := (k, v) :: List.remove_assoc k !model;
    0
  end
  else begin
    let full = List.length !model = capacity in
    model := (k, v) :: List.filteri (fun i _ -> (not full) || i < capacity - 1) !model;
    if full then 1 else 0
  end

(* Keys from a small range plus a few far-apart ones, so small tables
   collide and probe runs wrap around the end of the table. *)
let arbitrary_cache_ops =
  let open QCheck in
  let key = Gen.(frequency [ (4, int_range 0 11); (1, map (fun k -> k lsl 20) (int_range 1 4)) ]) in
  let op =
    Gen.(
      frequency
        [ (1, map (fun k -> Find k) key); (1, map2 (fun k v -> Add (k, v)) key (int_range 0 99)) ])
  in
  let print = function
    | Find k -> Printf.sprintf "find %d" k
    | Add (k, v) -> Printf.sprintf "add %d %d" k v
  in
  make ~print:(Print.list print) Gen.(list_size (int_range 0 60) op)

let prop_cache_model =
  QCheck.Test.make ~name:"cache = list LRU model" ~count:500 ~long_factor:20
    arbitrary_cache_ops (fun ops ->
      List.for_all
        (fun capacity ->
          let c = Cache.create capacity and model = ref [] in
          let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
          let same =
            List.for_all
              (function
                | Find k ->
                    let expected =
                      match model_find model k with
                      | Some v ->
                          incr hits;
                          v
                      | None ->
                          incr misses;
                          Cache.absent
                    in
                    Cache.find c k = expected
                | Add (k, v) ->
                    Cache.add c k v;
                    evictions := !evictions + model_add ~capacity model k v;
                    true)
              ops
          in
          same
          && Cache.hits c = !hits
          && Cache.misses c = !misses
          && Cache.evictions c = !evictions)
        [ 0; 1; 2; 7 ])

(* ------------------------------------------------------------------ *)
(* Query parsing *)

let test_query_parse_errors () =
  let labels = build_labels (small_graph 23 16) in
  let src = { Query.n = Array.length labels; dist = Array.get labels; cdl = None } in
  let expect_err needle line =
    match Query.parse src line with
    | Ok _ -> Alcotest.fail (Printf.sprintf "parse accepted %S" line)
    | Error msg ->
        let contains =
          let nl = String.length needle and ml = String.length msg in
          let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool (Printf.sprintf "%S error mentions %S (got %S)" line needle msg) true
          contains
  in
  List.iter
    (fun line ->
      match Query.parse src line with
      | Ok (Query.Dist { u = 0; v = 5 }) -> ()
      | _ -> Alcotest.failf "%S should parse as DIST 0 5" line)
    [ "DIST 0 5"; "DIST 0 5\r"; "DIST\t0\t5" ];
  expect_err "u" "DIST x 5";
  expect_err "v" "DIST 0 99";
  expect_err "2 fields" "DIST 0 1 2";
  expect_err "no constrained labels" "CDL 0 1 2";
  expect_err "unknown op" "NEAREST 0 1";
  expect_err "empty" "   "

(* ------------------------------------------------------------------ *)
(* Server *)

let test_server_stream () =
  let g = labeled_graph 29 20 in
  let labels = build_labels g in
  let cdl = Cdl.build ~seed:29 g count_spec ~metrics:(Metrics.create ()) in
  let path = temp_path ".bin" in
  Store.save path labels
    ~cdl:(count_spec.Stateful.q_size, count_spec.Stateful.start, Cdl.labels cdl);
  let src = Query.of_store (Store.open_ path) in
  let input = temp_path ".q" in
  let oc = open_out input in
  output_string oc "DIST 0 7\nCDL 3 9 2\n\nDIST bogus 1\nDIST 1 0\n";
  close_out oc;
  let out_path = temp_path ".a" in
  let ic = open_in input and oc = open_out out_path in
  let stats = Server.run ~cache:(Cache.create 8) src ic oc in
  close_in ic;
  close_out oc;
  check_int "answered" 3 stats.Server.answered;
  check_int "errors" 1 stats.Server.errors;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = Array.of_list (List.rev !lines) in
  check_int "one line per query" 4 (Array.length lines);
  let d = Shortest_path.dijkstra g 0 in
  check_bool "DIST 0 7 = oracle" true
    (String.equal lines.(0) (Query.print_answer d.(7)));
  check_bool "CDL 3 9 2 = sdec" true
    (String.equal lines.(1) (Query.print_answer (Cdl.sdec cdl ~q:2 ~src:3 ~dst:9)));
  check_bool "malformed line answered with ERR" true
    (String.length lines.(2) > 4 && String.equal (String.sub lines.(2) 0 4) "ERR ")

(* the PR's acceptance gate: a 10^5-query mixed DIST+CDL stream served
   from a persisted store, every answer equal to the oracle *)
let test_server_large_stream () =
  let g = labeled_graph 31 24 in
  let labels = build_labels g in
  let cdl = Cdl.build ~seed:31 g count_spec ~metrics:(Metrics.create ()) in
  let path = temp_path ".bin" in
  Store.save path labels
    ~cdl:(count_spec.Stateful.q_size, count_spec.Stateful.start, Cdl.labels cdl);
  let src = Query.of_store (Store.open_ path) in
  let n = Digraph.n g in
  let total = 100_000 in
  let rng = Random.State.make [| 0xe51 |] in
  let queries =
    Array.init total (fun _ ->
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if Random.State.bool rng then Query.Dist { u; v }
        else Query.Cdl { u; v; q = Random.State.int rng count_spec.Stateful.q_size })
  in
  let qfile = temp_path ".q" and afile = temp_path ".a" in
  let oc = open_out qfile in
  Array.iter
    (fun q ->
      output_string oc
        (match q with
        | Query.Dist { u; v } -> Printf.sprintf "DIST %d %d\n" u v
        | Query.Cdl { u; v; q } -> Printf.sprintf "CDL %d %d %d\n" u v q))
    queries;
  close_out oc;
  let ic = open_in qfile and oc = open_out afile in
  let cache = Cache.create 256 in
  let stats = Server.run ~cache ~flush_each:false src ic oc in
  close_in ic;
  close_out oc;
  check_int "all answered" total stats.Server.answered;
  check_int "no errors" 0 stats.Server.errors;
  let dij = Array.init n (fun u -> Shortest_path.dijkstra g u) in
  let ic = open_in afile in
  Array.iteri
    (fun i q ->
      let line = input_line ic in
      let expected =
        match q with
        | Query.Dist { u; v } -> dij.(u).(v)
        | Query.Cdl { u; v; q } -> Cdl.sdec cdl ~q ~src:u ~dst:v
      in
      if not (String.equal line (Query.print_answer expected)) then
        Alcotest.failf "query %d: served %S, oracle %s" i line (Query.print_answer expected))
    queries;
  close_in ic;
  check_bool "hot pairs hit the cache" true (Cache.hits cache > 0)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_bitio_roundtrip;
        prop_codec_roundtrip;
        prop_store_fuzz;
        prop_labeling_model;
        prop_cache_model;
      ]
  in
  Alcotest.run "repro_serve"
    [
      ( "bitio",
        [
          Alcotest.test_case "fields and varints" `Quick test_bitio_fields;
          Alcotest.test_case "boundary widths and varint max" `Quick test_bitio_boundaries;
          Alcotest.test_case "unaligned contents" `Quick test_bitio_unaligned_contents;
        ] );
      ( "codec",
        [
          Alcotest.test_case "inf sentinels, empty label" `Quick test_codec_inf_and_empty;
          Alcotest.test_case "zigzag extremes" `Quick test_codec_zigzag_extremes;
          Alcotest.test_case "golden bytes" `Quick test_codec_golden;
        ] );
      ( "text format",
        [ Alcotest.test_case "rejected by Store.open_" `Quick test_text_file_rejected ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + oracle" `Quick test_store_roundtrip;
          Alcotest.test_case ">=4x smaller than text" `Quick test_store_smaller_than_text;
          Alcotest.test_case "cdl section" `Quick test_store_cdl_roundtrip;
          Alcotest.test_case "record corruption rejected" `Quick test_store_rejects_corruption;
          Alcotest.test_case "index corruption contained" `Quick
            test_store_rejects_index_corruption;
          Alcotest.test_case "corrupt width is a format error" `Quick test_store_width_guard;
          Alcotest.test_case "directory count bounded" `Quick test_store_directory_count;
          Alcotest.test_case "pool counts bounded" `Quick test_store_pool_counts;
          Alcotest.test_case "header checksummed" `Quick test_store_header_checksum;
          Alcotest.test_case "magic checked before the file is read" `Quick
            test_store_magic_before_read;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction + counters" `Quick test_cache_lru;
          Alcotest.test_case "refresh on re-add" `Quick test_cache_update_refreshes;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "cached = uncached" `Quick test_cached_answers_match_uncached;
        ] );
      ( "query", [ Alcotest.test_case "parse errors name fields" `Quick test_query_parse_errors ] );
      ( "server",
        [
          Alcotest.test_case "stream protocol" `Quick test_server_stream;
          Alcotest.test_case "1e5 mixed stream = oracle" `Slow test_server_large_stream;
        ] );
      ( "labels",
        [
          Alcotest.test_case "set_sorted rejects a batch that does not increase" `Quick
            test_set_sorted_rejects_unsorted;
        ] );
      ("properties", qsuite);
    ]
