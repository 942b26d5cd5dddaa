type counter =
  | Messages | Words | Delivered | Dropped | Duplicated | Retransmissions | Corrupted
  | Rejected | Suspicions | Link_failures | Checkpoints | Checkpoint_words | Recoveries
  | Resync_rounds | Pulses | Safe_messages | Straggles | Virtual_time | Cache_hits
  | Cache_misses | Cache_evictions

let counters =
  [ Messages; Words; Delivered; Dropped; Duplicated; Retransmissions; Corrupted;
    Rejected; Suspicions; Link_failures; Checkpoints; Checkpoint_words; Recoveries;
    Resync_rounds; Pulses; Safe_messages; Straggles; Virtual_time; Cache_hits;
    Cache_misses; Cache_evictions ]

(* a counter's slot in [counts]: its declaration position, so the match
   compiles to arithmetic on the constructor's immediate *)
let[@inline] index = function
  | Messages -> 0 | Words -> 1 | Delivered -> 2 | Dropped -> 3 | Duplicated -> 4
  | Retransmissions -> 5 | Corrupted -> 6 | Rejected -> 7 | Suspicions -> 8
  | Link_failures -> 9 | Checkpoints -> 10 | Checkpoint_words -> 11 | Recoveries -> 12
  | Resync_rounds -> 13 | Pulses -> 14 | Safe_messages -> 15 | Straggles -> 16
  | Virtual_time -> 17 | Cache_hits -> 18 | Cache_misses -> 19 | Cache_evictions -> 20

let name = function
  | Messages -> "messages" | Words -> "words" | Delivered -> "delivered"
  | Dropped -> "dropped" | Duplicated -> "duplicated" | Retransmissions -> "retransmissions"
  | Corrupted -> "corrupted" | Rejected -> "rejected" | Suspicions -> "suspicions"
  | Link_failures -> "link_failures" | Checkpoints -> "checkpoints"
  | Checkpoint_words -> "checkpoint_words" | Recoveries -> "recoveries"
  | Resync_rounds -> "resync_rounds" | Pulses -> "pulses" | Safe_messages -> "safe_messages"
  | Straggles -> "straggles" | Virtual_time -> "virtual_time" | Cache_hits -> "cache_hits"
  | Cache_misses -> "cache_misses" | Cache_evictions -> "cache_evictions"

type t = { mutable rounds : int; counts : int array; per_label : (string, int ref) Hashtbl.t }

let create () =
  { rounds = 0; counts = Array.make (List.length counters) 0; per_label = Hashtbl.create 16 }

let add t ~label k =
  if k < 0 then invalid_arg "Metrics.add: negative round count";
  t.rounds <- t.rounds + k;
  match Hashtbl.find_opt t.per_label label with
  | Some r -> r := !r + k
  | None -> Hashtbl.add t.per_label label (ref k)

let add_count t c k =
  let i = index c in
  (* the virtual-time makespan is a high-water mark, not a sum *)
  match c with
  | Virtual_time -> if k > t.counts.(i) then t.counts.(i) <- k
  | _ -> t.counts.(i) <- t.counts.(i) + k

let rounds t = t.rounds
let get t c = t.counts.(index c)
let messages t = get t Messages
let retransmissions t = get t Retransmissions
let pulses t = get t Pulses
let recoveries t = get t Recoveries
let safe_messages t = get t Safe_messages
let cache_hits t = get t Cache_hits
let cache_misses t = get t Cache_misses
let cache_evictions t = get t Cache_evictions

let breakdown t =
  Det_tbl.bindings t.per_label ~compare:String.compare
  |> List.map (fun (label, r) -> (label, !r))
  |> List.sort (fun (la, a) (lb, b) ->
         (* count descending, label ascending on ties: fully deterministic *)
         match Int.compare b a with 0 -> String.compare la lb | c -> c)

let merge ~into src =
  List.iter (fun c -> add_count into c (get src c)) counters;
  Det_tbl.iter_sorted src.per_label ~compare:String.compare (fun label r ->
      add into ~label !r)

let json_escape = Repro_obs.Event.json_escape

let to_json ?name:title t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  (match title with
  | Some n -> Printf.bprintf buf {|"name":"%s",|} (json_escape n)
  | None -> ());
  Printf.bprintf buf {|"rounds":%d,|} t.rounds;
  List.iter (fun c -> Printf.bprintf buf {|"%s":%d,|} (name c) (get t c)) counters;
  Buffer.add_string buf {|"labels":{|};
  List.iteri
    (fun i (l, r) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf {|"%s":%d|} (json_escape l) r)
    (breakdown t);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>rounds=%d messages=%d" t.rounds (messages t);
  List.iter
    (fun c -> if c <> Messages && get t c > 0 then Format.fprintf fmt " %s=%d" (name c) (get t c))
    counters;
  List.iter (fun (l, r) -> Format.fprintf fmt "@,  %-24s %d" l r) (breakdown t);
  Format.fprintf fmt "@]"
