(* Precompute/query/serve workflow for distance labels.

   precompute: generate (or --input) a graph, run the distributed
   pipeline (Theorem 1 + Theorem 2) and save every node's label — the
   "deployment" artifact of a distance labeling scheme — to the
   bit-packed store, optionally with the CDL product labels of a
   --constraint.

   query: open a store and answer distance queries from labels alone,
   without the graph. Malformed pair specs are usage errors: a message
   naming the bad field, exit code 2 (the --partition / --straggle
   idiom). A file that is not a store fails its magic check: a data
   error, exit 1.

   serve: the query engine as a batch/stream server — newline-delimited
   "DIST u v" / "CDL u v q" requests from a file or stdin, one answer
   per line, with a bounded hot-pair LRU cache in front of label
   decoding. *)

module Digraph = Repro_graph.Digraph
module Metrics = Repro_congest.Metrics
module Build = Repro_treedec.Build
module Dl = Repro_core.Dl
module Stateful = Repro_core.Stateful
module Cdl = Repro_core.Cdl
module Store = Repro_serve.Store
module Query = Repro_serve.Query
module Cache = Repro_serve.Cache
module Server = Repro_serve.Server
open Cmdliner

(* malformed user input: name the field, exit 2 *)
let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* a corrupted or truncated store is a data error, not a usage error:
   clean message, exit 1 — checksum verification is lazy (per shard on
   first access), so this can fire mid-query, not just at open *)
let store_guard f =
  try f ()
  with Store.Error e ->
    Format.eprintf "labels store: %a@." Store.pp_error e;
    exit 1

let constraint_grammar = "parity | forbidden | count:LIMIT | colored:COLORS"

let parse_constraint s =
  let int_field idx name v k =
    match int_of_string_opt (String.trim v) with
    | Some i when i >= 0 -> k i
    | _ ->
        usage_error
          "bad --constraint %S: field %d (%s) %S is not a non-negative integer; expected %s" s
          idx name v constraint_grammar
  in
  match String.split_on_char ':' s with
  | [ "parity" ] -> Stateful.parity
  | [ "forbidden" ] -> Stateful.forbidden
  | [ "count"; l ] -> int_field 2 "LIMIT" l (fun l -> Stateful.count ~limit:l)
  | [ "colored"; c ] -> int_field 2 "COLORS" c (fun c -> Stateful.colored ~colors:c)
  | _ -> usage_error "bad --constraint %S; expected %s" s constraint_grammar

let precompute g out constraint_ edge_labels fc obs =
  Cli_common.setup_obs obs;
  Cli_common.print_graph_summary g;
  Cli_common.print_fault_config fc;
  (* permanent partitions / crash-stops: label only the certified
     component (labels are then indexed by component-local ids) *)
  let g =
    match Cli_common.certified_subgraph fc obs g ~root:0 with
    | None -> g
    | Some (g', _, _) ->
        Format.printf "labels cover the certified component, re-indexed 0..%d@."
          (Repro_graph.Digraph.n g' - 1);
        g'
  in
  let spec = Option.map parse_constraint constraint_ in
  let g =
    match edge_labels with
    | Some k when k > 0 ->
        Digraph.with_labels g (fun e -> Hashtbl.hash (e.Digraph.id, 0x5e3) mod k)
    | Some k -> usage_error "bad --edge-labels %d: COLORS must be positive" k
    | None -> g
  in
  let m = Metrics.create () in
  let report = Build.decompose g ~metrics:m in
  let labels = Dl.build g report.Build.decomposition ~metrics:m in
  let cdl =
    Option.map
      (fun spec ->
        let c = Cdl.build ~seed:2 g spec ~metrics:m in
        (spec.Stateful.q_size, spec.Stateful.start, Cdl.labels c))
      spec
  in
  Store.save out labels ?cdl;
  let st = Store.open_ out in
  Format.printf
    "wrote %d labels%s to %s (%d bytes, %d anchor pools) after %d simulated rounds@."
    (Array.length labels)
    (match cdl with
    | Some (_, _, pl) -> Printf.sprintf " + %d CDL labels" (Array.length pl)
    | None -> "")
    out (Store.byte_size st) (Store.pool_count st) (Metrics.rounds m);
  Cli_common.metrics_json obs ~name:"precompute" m

(* a file that cannot be read is a usage error; one that is not a
   store raises Store.Error, which store_guard turns into exit 1 *)
let load_source path =
  match Store.open_ path with
  | st -> Query.of_store st
  | exception Sys_error e -> usage_error "--labels: %s" e

let pair_grammar = "U,V with two vertex ids"

let parse_pair src s =
  let err field what got why =
    usage_error "bad pair %S: field %d (%s) %S %s; expected %s" s field what got why
      pair_grammar
  in
  match String.split_on_char ',' s with
  | [ u; v ] ->
      let int_field idx name w =
        match int_of_string_opt (String.trim w) with
        | Some i when i >= 0 && i < src.Query.n -> i
        | Some _ -> err idx name w (Printf.sprintf "is out of range [0,%d)" src.Query.n)
        | None -> err idx name w "is not an integer"
      in
      (int_field 1 "U" u, int_field 2 "V" v)
  | parts ->
      usage_error "bad pair %S: %d field(s), want 2; expected %s" s (List.length parts)
        pair_grammar

let query labels_path pair_specs =
  store_guard @@ fun () ->
  let src = load_source labels_path in
  let pairs = List.map (parse_pair src) pair_specs in
  List.iter
    (fun (u, v) ->
      let d = Query.answer src (Query.Dist { u; v }) in
      if d >= Digraph.inf then Format.printf "d(%d,%d) = unreachable@." u v
      else Format.printf "d(%d,%d) = %d@." u v d)
    pairs

let serve labels_path input cache_size obs =
  store_guard @@ fun () ->
  Cli_common.setup_obs obs;
  if cache_size < 0 then usage_error "bad --cache %d: capacity must be >= 0" cache_size;
  let src = load_source labels_path in
  let cache = Cache.create cache_size in
  let stats =
    match input with
    | None -> Server.run ~cache src stdin stdout
    | Some f ->
        let ic = try open_in f with Sys_error e -> usage_error "--queries: %s" e in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Server.run ~cache ~flush_each:false src ic stdout)
  in
  Format.eprintf "served %d queries (%d malformed); cache: %d hits, %d misses, %d evictions@."
    stats.Server.answered stats.Server.errors (Cache.hits cache) (Cache.misses cache)
    (Cache.evictions cache);
  let m = Metrics.create () in
  Cache.flush cache m;
  Cli_common.metrics_json obs ~name:"serve" m

let out_t =
  Arg.(
    value & opt string "labels.bin"
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Label store to write (bit-packed, with anchor-set pooling and per-shard \
           checksums).")

let constraint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "constraint" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Also build and store CDL product labels for this walk constraint (%s)."
             constraint_grammar))

let edge_labels_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "edge-labels" ] ~docv:"COLORS"
        ~doc:"Relabel edges with hash-assigned colors in [0,COLORS) before building.")

let labels_t =
  Arg.(
    value & opt string "labels.bin"
    & info [ "labels" ] ~docv:"FILE" ~doc:"Label store to read (as written by $(b,precompute)).")

let pairs_t =
  Arg.(value & pos_all string [] & info [] ~docv:"U,V" ~doc:"Query pairs, e.g. 0,7 3,12.")

let queries_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:"Batch query file, one DIST/CDL query per line (default: stream from stdin).")

let cache_t =
  Arg.(
    value & opt int 1024
    & info [ "cache" ] ~docv:"CAPACITY"
        ~doc:"Hot-pair LRU cache capacity in entries; 0 disables caching.")

let precompute_cmd =
  Cmd.v
    (Cmd.info "precompute" ~doc:"Build labels for a graph and save them")
    Term.(
      const precompute $ Cli_common.graph_t $ out_t $ constraint_t $ edge_labels_t
      $ Cli_common.fault_config_t $ Cli_common.obs_t)

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Answer distance queries from a label store")
    Term.(const query $ labels_t $ pairs_t)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve DIST/CDL queries from a label store, batch ($(b,--queries)) or stream (stdin)")
    Term.(const serve $ labels_t $ queries_t $ cache_t $ Cli_common.obs_t)

let cmd =
  Cmd.group
    (Cmd.info "labels_cli"
       ~doc:"Distance-labeling precompute/query/serve workflow (Theorem 2)")
    [ precompute_cmd; query_cmd; serve_cmd ]

let () = exit (Cmd.eval cmd)
