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

let prop_text_roundtrip =
  QCheck.Test.make ~name:"text format: of_string (to_string la) = la" ~count:300
    arbitrary_label (fun la ->
      Labeling.equal la (Labeling.of_string (Labeling.to_string la)))

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
(* Legacy text store (Dl.save_text / load_text) *)

let test_text_store_roundtrip () =
  let g =
    Generators.random_weights ~seed:3 ~max_weight:9 (Generators.k_tree ~seed:3 24 2)
  in
  let labels = Dl.build g (Heuristic.min_fill g) ~metrics:(Metrics.create ()) in
  let path = temp_path ".txt" in
  Dl.save_text path labels;
  let labels' = Dl.load_text path in
  check_int "count" (Array.length labels) (Array.length labels');
  Array.iteri
    (fun i la -> check_bool "label equal" true (Labeling.equal la labels'.(i)))
    labels

let test_text_store_parse_error () =
  let path = temp_path ".txt" in
  let oc = open_out path in
  output_string oc "0 1 2 3\n\nnot a label\n";
  close_out oc;
  match Dl.load_text path with
  | _ -> Alcotest.fail "malformed text store accepted"
  | exception Dl.Parse_error { line; _ } -> check_int "error on line 3" 3 line

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

(* the >=4x acceptance gate runs on the E2b instances exactly as the
   bench builds them: distributed decomposition, not min-fill *)
let test_store_smaller_than_text () =
  List.iter
    (fun g ->
      let report = Build.decompose ~seed:2 g ~metrics:(Metrics.create ()) in
      let labels = Dl.build g report.Build.decomposition ~metrics:(Metrics.create ()) in
      let bin = temp_path ".bin" and txt = temp_path ".txt" in
      Store.save bin labels;
      Dl.save_text txt labels;
      let st = Store.open_ bin in
      let bin_size = Store.byte_size st in
      let ic = open_in_bin txt in
      let txt_size = in_channel_length ic in
      close_in ic;
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

(* ------------------------------------------------------------------ *)
(* Query parsing *)

let test_query_parse_errors () =
  let labels = build_labels (small_graph 23 16) in
  let src = Query.of_text labels in
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
  (match Query.parse src "DIST 0 5" with
  | Ok (Query.Dist { u = 0; v = 5 }) -> ()
  | _ -> Alcotest.fail "DIST 0 5 should parse");
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
      [ prop_bitio_roundtrip; prop_codec_roundtrip; prop_text_roundtrip ]
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
        ] );
      ( "text format",
        [
          Alcotest.test_case "roundtrip via Dl.save_text" `Quick test_text_store_roundtrip;
          Alcotest.test_case "typed parse error with line" `Quick test_text_store_parse_error;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + oracle" `Quick test_store_roundtrip;
          Alcotest.test_case ">=4x smaller than text" `Quick test_store_smaller_than_text;
          Alcotest.test_case "cdl section" `Quick test_store_cdl_roundtrip;
          Alcotest.test_case "record corruption rejected" `Quick test_store_rejects_corruption;
          Alcotest.test_case "index corruption contained" `Quick
            test_store_rejects_index_corruption;
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
      ("properties", qsuite);
    ]
