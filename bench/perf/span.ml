(* Spans the benchmark records around its own calls into each layer's
   public functions. Off by default: [with_] then costs one branch, so
   the end-to-end metrics are measured with tracing off and a separate
   traced run gives the per-layer figures.

   Aggregates per stage: busy time, self time (busy minus the time its
   direct child spans cover), minor words allocated and call count. The
   first [event_cap] spans are also kept as Chrome trace events. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false

type stage = int

let names : string array ref = ref [||]

let stage name =
  let rec find i = if i = Array.length !names then None else if !names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
      names := Array.append !names [| name |];
      Array.length !names - 1

let name st = !names.(st)

(* The root span of one closed-loop request: its direct children are
   the stage spans, whose busy time should cover the request's wall
   time. *)
let job = stage "bench.job"

type agg = { mutable busy : int; mutable self : int; mutable words : float; mutable count : int }

let aggs : agg array ref = ref [||]

let agg st =
  if st >= Array.length !aggs then
    aggs := Array.init (Array.length !names) (fun i ->
      if i < Array.length !aggs then !aggs.(i) else { busy = 0; self = 0; words = 0.; count = 0 });
  !aggs.(st)

(* job-level reconciliation: total job wall time and the part of it
   covered by direct child spans *)
let job_wall = ref 0
let job_covered = ref 0

let reset () =
  Array.iter (fun a -> a.busy <- 0; a.self <- 0; a.words <- 0.; a.count <- 0) !aggs;
  job_wall := 0;
  job_covered := 0

let max_depth = 64
let st_stage = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_words = Array.make max_depth 0.
let st_child = Array.make max_depth 0
let st_label = Array.make max_depth ""
let depth = ref 0

type event = { ev_stage : stage; ev_label : string; ev_start : int; ev_dur : int }

let event_cap = 20_000
let events : event list ref = ref []
let event_count = ref 0
let dropped_events = ref 0

let enter ?(label = "") st =
  let d = !depth in
  if d >= max_depth then invalid_arg "Span.enter: nesting too deep";
  st_stage.(d) <- st;
  st_label.(d) <- label;
  st_child.(d) <- 0;
  st_words.(d) <- Gc.minor_words ();
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let stop = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let st = st_stage.(d) in
  let dur = stop - st_start.(d) in
  let a = agg st in
  a.busy <- a.busy + dur;
  a.self <- a.self + (dur - st_child.(d));
  a.words <- a.words +. (Gc.minor_words () -. st_words.(d));
  a.count <- a.count + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if st = job then begin
    job_wall := !job_wall + dur;
    job_covered := !job_covered + st_child.(d)
  end;
  if !event_count < event_cap then begin
    incr event_count;
    events := { ev_stage = st; ev_label = st_label.(d); ev_start = st_start.(d); ev_dur = dur } :: !events
  end
  else incr dropped_events

let with_ ?label st f =
  if not !enabled then f ()
  else begin
    enter ?label st;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(* Cost of recording one span, in ns, measured on empty spans before
   anything else is recorded (it clears what it recorded). Spans
   recorded times this cost, over the traced wall time, is the tracing
   overhead of a run. *)
let cost_ns () =
  let probe = stage "bench.probe" in
  enabled := true;
  let k = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to k do
    with_ probe ignore
  done;
  let per = float_of_int (now_ns () - t0) /. float_of_int k in
  enabled := false;
  reset ();
  events := [];
  event_count := 0;
  dropped_events := 0;
  per

let count st = (agg st).count

(* Chrome trace-event JSON ("X" complete events on one track), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome path ~meta =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let evs = List.rev !events in
  let t0 = List.fold_left (fun acc e -> min acc e.ev_start) max_int evs in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"otherData\": ";
  output_string oc (Json.to_string (Json.Obj (("dropped_events", Json.Num (float_of_int !dropped_events)) :: meta)));
  output_string oc ",\n\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      let nm = name e.ev_stage in
      let cat = match String.index_opt nm '.' with Some k -> String.sub nm 0 k | None -> nm in
      let args = if e.ev_label = "" then "{}" else Printf.sprintf "{\"job\": %s}" (Json.quote e.ev_label) in
      Printf.fprintf oc "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": %s}"
        (if i = 0 then "" else ",\n")
        (Json.quote nm) (Json.quote cat)
        (float_of_int (e.ev_start - t0) /. 1e3)
        (float_of_int e.ev_dur /. 1e3)
        args)
    evs;
  output_string oc "\n]}\n"
