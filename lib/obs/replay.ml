(* Deterministic record/replay.

   The engine is deterministic apart from the fault adversary's
   per-send decisions, and it forbids two same-direction messages on a
   link in one round — so within one [Engine.run] the triple
   (send_round, src, dst) uniquely identifies each adversary
   consultation. A recorded trace therefore captures the complete
   delivery schedule: each [Send] opens a fate entry, each
   [Deliver]/receiver-down [Drop] contributes one surviving copy's
   extra delay, a garbled [Drop] contributes a corrupted copy, and a
   fate left empty is a link drop; [Corrupt] events mark which
   delivered copies were garbled. Partition windows are deterministic
   (like crash windows): the engine re-applies them itself, so severed
   sends never consult the adversary, and replay only keeps the static
   window events for [Fault.of_replay] to rebuild the profile from.
   Replaying the schedule through a scripted adversary reproduces the
   run exactly.

   A CLI invocation may call [Engine.run] several times (rounds restart
   at 0 each time), so fates are sectioned per *faulty* run in trace
   order; the scripted adversary's run counter selects the section. *)

exception Divergence of string

let () =
  Printexc.register_printer (function
    | Divergence msg -> Some ("Replay.Divergence: " ^ msg)
    | _ -> None)

(* a copy's recorded fate: (extra delay rounds, corrupted in flight) *)
type t = {
  schedules : (int * int * int, (int * bool) list) Hashtbl.t array;
  windows : Event.t list;
}

let of_events events =
  let faulty_runs = List.filter (fun (r : Trace_io.run) -> r.faulty) (Trace_io.split_runs events) in
  let schedule_of_run (r : Trace_io.run) =
    let tbl : (int * int * int, (int * bool) list) Hashtbl.t = Hashtbl.create 1024 in
    (* extras (per key) that [Corrupt] events say must carry the flag *)
    let corrupts : (int * int * int, int list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (e : Event.t) ->
        match e with
        | Send { round; src; dst; _ } -> Hashtbl.replace tbl (round, src, dst) []
        | Deliver { send_round; round; src; dst; _ }
        | Drop { send_round; round; src; dst; reason = Receiver_down; _ }
        | Drop { send_round; round; src; dst; reason = Straggler; _ }
        | Drop { send_round; round; src; dst; reason = Garbled; _ } -> (
            (* one surviving copy, delivered [extra] rounds late
               (receiver-down and garbled copies survived the wire and
               still count; garbled ones are known corrupt already) *)
            (* receiver-down, straggler-cut and garbled copies survived
               the wire and still count as surviving fates *)
            let extra = round - send_round - 1 in
            let corrupt =
              match e with Drop { reason = Garbled; _ } -> true | _ -> false
            in
            let key = (send_round, src, dst) in
            match Hashtbl.find_opt tbl key with
            | Some l -> Hashtbl.replace tbl key ((extra, corrupt) :: l)
            | None ->
                raise
                  (Divergence
                     (Printf.sprintf "trace has a delivery for unrecorded send r%d %d->%d"
                        send_round src dst)))
        | Corrupt { send_round; deliver_round; src; dst } ->
            let key = (send_round, src, dst) in
            let extra = deliver_round - send_round - 1 in
            Hashtbl.replace corrupts key
              (extra :: (Option.value ~default:[] (Hashtbl.find_opt corrupts key)))
        | Drop { reason = Link; _ } | Drop { reason = Severed; _ } -> ()
        | _ -> ())
      r.events;
    (* reattach corrupt flags: each [Corrupt] entry accounts for one
       copy with that extra delay; garbled drops already carry theirs *)
    Hashtbl.iter
      (fun key extras ->
        match Hashtbl.find_opt tbl key with
        | None ->
            let r0, src, dst = key in
            raise
              (Divergence
                 (Printf.sprintf "trace corrupts an unrecorded send r%d %d->%d" r0 src dst))
        | Some fates ->
            (* per extra delay: [Corrupt] events required minus copies
               already marked by garbled drops = copies left to flip *)
            let to_flip = Hashtbl.create 4 in
            let bump tbl e k =
              Hashtbl.replace tbl e (k + Option.value ~default:0 (Hashtbl.find_opt tbl e))
            in
            List.iter (fun e -> bump to_flip e 1) extras;
            List.iter (fun (e, c) -> if c then bump to_flip e (-1)) fates;
            let fates =
              List.map
                (fun (e, c) ->
                  let left = Option.value ~default:0 (Hashtbl.find_opt to_flip e) in
                  if (not c) && left > 0 then begin
                    Hashtbl.replace to_flip e (left - 1);
                    (e, true)
                  end
                  else (e, c))
                fates
            in
            Hashtbl.iter
              (fun _ left ->
                if left > 0 then
                  let r0, src, dst = key in
                  raise
                    (Divergence
                       (Printf.sprintf "corrupt event with no matching copy for send r%d %d->%d"
                          r0 src dst)))
              to_flip;
            Hashtbl.replace tbl key fates)
      corrupts;
    (* sort each fate's copies: order among identical duplicates is
       unobservable, (delay, corrupt) ascending is canonical *)
    Hashtbl.filter_map_inplace
      (fun _ l -> Some (List.sort (fun (a, ca) (b, cb) ->
           match Int.compare a b with 0 -> Bool.compare ca cb | c -> c) l))
      tbl;
    tbl
  in
  let schedules = Array.of_list (List.map schedule_of_run faulty_runs) in
  (* the windows repeat identically in every faulty section (one
     adversary per CLI invocation); keep the first section's *)
  let windows =
    match faulty_runs with
    | [] -> []
    | first :: _ ->
        List.filter
          (fun (e : Event.t) ->
            match e with
            | Crash_window _ | Partition_window _ | Straggle_window _ | Timing _ -> true
            | _ -> false)
          first.events
  in
  { schedules; windows }

let runs t = Array.length t.schedules
let windows t = t.windows

let plan t ~run ~round ~src ~dst =
  if run < 0 || run >= Array.length t.schedules then
    raise
      (Divergence
         (Printf.sprintf "replay has %d faulty run(s) but the adversary was consulted in run %d"
            (Array.length t.schedules) run));
  match Hashtbl.find_opt t.schedules.(run) (round, src, dst) with
  | Some fate -> fate
  | None ->
      raise
        (Divergence
           (Printf.sprintf "no recorded fate for send r%d %d->%d in faulty run %d" round src
              dst run))
