module Replay = Repro_obs.Replay
module Event = Repro_obs.Event

type mode = Freeze | Amnesia

type crash = { node : int; from_round : int; until_round : int option; mode : mode }

type cut = Links of (int * int) list | Around of int list

type partition = { cut : cut; from_round : int; heal_round : int option }

(* A timing fault: during [s_from, s_until) node [s_node]'s local
   computation per pulse is stretched by [factor] (virtual-time units;
   1 = nominal). [factor = 0] encodes a stall: a bounded stall is
   modeled as a [stall_factor]x slowdown (long enough to blow any
   realistic pulse deadline), an unbounded one ([s_until = None]) stops
   the node outright — under the asynchronous executor it behaves like
   a crash-stop from [s_from] on. *)
type straggle = { s_node : int; s_from : int; s_until : int option; factor : int }

let stall_factor = 1000

type profile = {
  drop : float;
  duplicate : float;
  max_delay : int;
  corrupt : float;
  crashes : crash list;
  partitions : partition list;
  stragglers : straggle list;
  link_latency : int;
  skew : int;
}

let crash ?until ?(mode = Freeze) ~from node =
  { node; from_round = from; until_round = until; mode }

let partition ?heal ~from cut = { cut; from_round = from; heal_round = heal }

let straggle ?until ?(factor = 0) ~from node =
  { s_node = node; s_from = from; s_until = until; factor }

let check_partition p =
  (match p.cut with
  | Links [] | Around [] -> invalid_arg "Fault.profile: empty partition cut"
  | Links es ->
      List.iter
        (fun (a, b) -> if a = b then invalid_arg "Fault.profile: partition self-loop link")
        es
  | Around _ -> ());
  if p.from_round < 0 then invalid_arg "Fault.profile: negative partition round";
  match p.heal_round with
  | Some h when h <= p.from_round ->
      invalid_arg "Fault.profile: partition heals before it starts"
  | _ -> ()

let profile ?(drop = 0.0) ?(duplicate = 0.0) ?(max_delay = 0) ?(corrupt = 0.0)
    ?(crashes = []) ?(partitions = []) ?(stragglers = []) ?(link_latency = 0) ?(skew = 0)
    () =
  let check_prob name p =
    if p < 0.0 || p >= 1.0 then
      invalid_arg (Printf.sprintf "Fault.profile: %s=%g outside [0,1)" name p)
  in
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  if max_delay < 0 then invalid_arg "Fault.profile: negative max_delay";
  List.iter
    (fun (c : crash) ->
      if c.from_round < 0 then invalid_arg "Fault.profile: negative crash round";
      match (c.until_round, c.mode) with
      | Some u, _ when u <= c.from_round ->
          invalid_arg "Fault.profile: crash window ends before it starts"
      | None, Amnesia ->
          invalid_arg
            "Fault.profile: an amnesia crash never restarts (use a Freeze crash-stop, \
             or give it an until_round)"
      | _ -> ())
    crashes;
  List.iter check_partition partitions;
  List.iter
    (fun (s : straggle) ->
      if s.s_from < 0 then invalid_arg "Fault.profile: negative straggle round";
      if s.factor < 0 then invalid_arg "Fault.profile: negative straggle factor";
      if s.factor = 1 then
        invalid_arg "Fault.profile: straggle factor 1 is a no-op (use 0 = stall, or >= 2)";
      match s.s_until with
      | Some u when u <= s.s_from ->
          invalid_arg "Fault.profile: straggle window ends before it starts"
      | _ -> ())
    stragglers;
  if link_latency < 0 then invalid_arg "Fault.profile: negative link_latency";
  if skew < 0 then invalid_arg "Fault.profile: negative skew";
  { drop; duplicate; max_delay; corrupt; crashes; partitions; stragglers; link_latency; skew }

(* A copy's fate once it survives the partition check: how many extra
   rounds it is held, and whether its payload is garbled in flight. *)
type fate = { extra : int; corrupt : bool }

(* Two ways to decide message fates: the seeded random process, or a
   recorded schedule being replayed (Repro_obs.Replay feeds one in via
   [of_replay]). Scripted deciders need to know which [Engine.run] of
   the CLI invocation is consulting them — rounds restart at 0 each
   run — so the engine announces run boundaries with [begin_run]. *)
type decider =
  | Rng of Random.State.t
  | Scripted of (run:int -> round:int -> src:int -> dst:int -> fate list)

type t = { p : profile; decider : decider; seed : int; mutable run : int }

let create ?(seed = 0) p =
  {
    p;
    decider = Rng (Random.State.make [| seed lxor 0xfa17; p.max_delay + 1 |]);
    seed;
    run = -1;
  }

let begin_run t = t.run <- t.run + 1
let profile_of t = t.p
let seed_of t = t.seed

(* the fate of every copy of a profile that can neither delay nor
   corrupt, shared so such a send allocates nothing *)
let intact_fates = [ { extra = 0; corrupt = false } ]

let plan t ~round ~src ~dst =
  match t.decider with
  | Scripted f -> f ~run:(max t.run 0) ~round ~src ~dst
  | Rng rng ->
      let p = t.p in
      if p.drop > 0.0 && Random.State.float rng 1.0 < p.drop then []
      else begin
        let copies =
          if p.duplicate > 0.0 && Random.State.float rng 1.0 < p.duplicate then 2 else 1
        in
        if copies = 1 && p.max_delay = 0 && p.corrupt = 0.0 then intact_fates
        else
          List.init copies (fun _ ->
              let extra =
                if p.max_delay = 0 then 0 else Random.State.int rng (p.max_delay + 1)
              in
              let corrupt = p.corrupt > 0.0 && Random.State.float rng 1.0 < p.corrupt in
              { extra; corrupt })
      end

(* [List.exists (fun x -> p x round v) xs] without the closure: the
   engine asks the crash predicates below for every node in every
   round, so they hand [p] a function with no free variables *)
let rec exists_at p round v = function
  | [] -> false
  | x :: rest -> p x round v || exists_at p round v rest

let in_window (c : crash) ~round =
  round >= c.from_round
  && (match c.until_round with None -> true | Some u -> round < u)

let crashed t ~round v =
  exists_at (fun c round v -> c.node = v && in_window c ~round) round v t.p.crashes

let crash_stopped t ~round v =
  exists_at
    (fun c round v -> c.node = v && c.until_round = None && round >= c.from_round)
    round v t.p.crashes

let eventually_down t v =
  List.exists (fun c -> c.node = v && c.until_round = None) t.p.crashes

let restarted t ~round v =
  (not (crashed t ~round v))
  && exists_at
       (fun c round v ->
         c.node = v && c.mode = Amnesia
         && match c.until_round with Some u -> u = round | None -> false)
       round v t.p.crashes

(* the window is "in progress" through the restart round itself ([<= u]):
   the restart is applied at round [u], so the run must still be alive
   then for the node to come back at all *)
let amnesia_in_progress t ~round =
  exists_at
    (fun c round _ ->
      c.mode = Amnesia
      && round >= c.from_round
      && match c.until_round with Some u -> round <= u | None -> false)
    round 0 t.p.crashes

(* --------------------------------------------------------- partitions *)

let cut_covers cut ~src ~dst =
  match cut with
  | Links es -> List.exists (fun (a, b) -> (a = src && b = dst) || (a = dst && b = src)) es
  | Around vs -> List.mem src vs || List.mem dst vs

let partition_active p ~round =
  round >= p.from_round
  && (match p.heal_round with None -> true | Some h -> round < h)

let link_down t ~round ~src ~dst =
  t.p.partitions <> []
  && List.exists
       (fun p -> partition_active p ~round && cut_covers p.cut ~src ~dst)
       t.p.partitions

let severed t ~src ~dst =
  List.exists
    (fun p -> p.heal_round = None && cut_covers p.cut ~src ~dst)
    t.p.partitions

(* ------------------------------------------------- timing adversary *)
(* Every timing draw is a pure hash of (seed, salt, coordinates), not a
   pull on the profile's RNG stream: draws are order-independent, so
   the asynchronous executor can consult them in any event order
   without perturbing [plan]'s stream — synchronous runs of the same
   profile stay byte-identical — and replay only needs the seed (the
   same idiom as Transport's retransmission jitter). *)

let timing_active t =
  t.p.stragglers <> [] || t.p.link_latency > 0 || t.p.skew > 0

let in_straggle_window (s : straggle) ~round =
  round >= s.s_from && (match s.s_until with None -> true | Some u -> round < u)

(* nominal = 1; a bounded stall is a [stall_factor]x slowdown. A
   closure-free scan: the asynchronous executor asks every pulse. *)
let rec factor_in ss ~round v =
  match ss with
  | [] -> 1
  | s :: rest when not (s.s_node = v && in_straggle_window s ~round) -> factor_in rest ~round v
  | { factor = 0; s_until = Some _; _ } :: _ -> stall_factor
  | { factor = 0; s_until = None; _ } :: _ -> 0
  | s :: _ -> s.factor

let straggle_factor t ~round v = factor_in t.p.stragglers ~round v

let stalled_forever t ~round v =
  exists_at
    (fun s round v -> s.s_node = v && s.factor = 0 && s.s_until = None && round >= s.s_from)
    round v t.p.stragglers

let eventually_stalled t v =
  List.exists (fun s -> s.s_node = v && s.factor = 0 && s.s_until = None) t.p.stragglers

let skew_of t v =
  if t.p.skew = 0 then 0 else Hashtbl.hash (t.seed, 0x5e3a, v) mod (t.p.skew + 1)

let latency t ~round ~src ~dst ~leg =
  if t.p.link_latency = 0 then 0
  else Hashtbl.hash (t.seed, 0x1a7e, round, src, dst, leg) mod (t.p.link_latency + 1)

(* --------------------------------------------------- trace windows *)
(* A profile's static part, written as the events that open a faulty
   run's trace and read back from them: the windows, the timing
   statics and the timing seed are all replay needs besides the
   per-copy schedule. *)

let window_events t ~n =
  let p = t.p in
  let crash_window (c : crash) =
    Event.Crash_window
      {
        node = c.node;
        from_round = c.from_round;
        until_round = c.until_round;
        amnesia = c.mode = Amnesia;
      }
  in
  let partition_window (w : partition) =
    let links, nodes = match w.cut with Links es -> (es, []) | Around vs -> ([], vs) in
    Event.Partition_window { links; nodes; from_round = w.from_round; heal_round = w.heal_round }
  in
  let straggle_window s =
    Event.Straggle_window
      { node = s.s_node; from_round = s.s_from; until_round = s.s_until; factor = s.factor }
  in
  let timing =
    if not (timing_active t) then []
    else
      Event.Timing { link_latency = p.link_latency; skew = p.skew; seed = t.seed }
      :: List.filter_map
           (fun v ->
             let offset = skew_of t v in
             if offset > 0 then Some (Event.Skew { node = v; offset }) else None)
           (List.init n Fun.id)
  in
  List.map crash_window p.crashes
  @ List.map partition_window p.partitions
  @ List.map straggle_window p.stragglers
  @ timing

let of_replay r =
  let add (e : Event.t) (w, seed) =
    match e with
    | Crash_window { node; from_round; until_round; amnesia } ->
        let mode = if amnesia then Amnesia else Freeze in
        let c = crash node ~from:from_round ?until:until_round ~mode in
        ({ w with crashes = c :: w.crashes }, seed)
    | Partition_window { links; nodes; from_round; heal_round } ->
        let cut = if links = [] then Around nodes else Links links in
        let p = partition ~from:from_round ?heal:heal_round cut in
        ({ w with partitions = p :: w.partitions }, seed)
    | Straggle_window { node; from_round; until_round; factor } ->
        let s = straggle node ~from:from_round ?until:until_round ~factor in
        ({ w with stragglers = s :: w.stragglers }, seed)
    | Timing { link_latency; skew; seed } -> ({ w with link_latency; skew }, seed)
    | _ -> (w, seed)
  in
  let w, seed = List.fold_right add (Replay.windows r) (profile (), 0) in
  let plan ~run ~round ~src ~dst =
    List.map (fun (extra, corrupt) -> { extra; corrupt }) (Replay.plan r ~run ~round ~src ~dst)
  in
  {
    p =
      profile ~crashes:w.crashes ~partitions:w.partitions ~stragglers:w.stragglers
        ~link_latency:w.link_latency ~skew:w.skew ();
    decider = Scripted plan;
    seed;
    run = -1;
  }

(* ------------------------------------------------- CLI spec grammar *)
(* A spec is ':'-separated fields. Every error names the offending
   field, numbered from 1, and restates the grammar. *)

type grammar = { text : string; fields : string array }

let ( let* ) = Result.bind

let field_error g i got why =
  Error (Printf.sprintf "field %d (%s) %S %s; expected %s" (i + 1) g.fields.(i) got why g.text)

let arity_error g parts =
  Error
    (Printf.sprintf "%d field(s), want 2-%d; expected %s" (List.length parts)
       (Array.length g.fields) g.text)

let int_field g i v =
  match int_of_string_opt (String.trim v) with
  | Some n -> Ok n
  | None -> field_error g i v "is not an integer"

(* [f] over every member, left to right, or the first error *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_ok f rest in
      Ok (y :: ys)

let crash_grammar =
  {
    text = "NODE:FROM[:UNTIL[:MODE]] with MODE in {freeze, amnesia}";
    fields = [| "NODE"; "FROM"; "UNTIL"; "MODE" |];
  }

let parse_crash s =
  let g = crash_grammar in
  match String.split_on_char ':' s with
  | node :: from :: rest when List.length rest <= 2 -> (
      let* node = int_field g 0 node in
      let* from = int_field g 1 from in
      match rest with
      | [] -> Ok (crash node ~from)
      | until :: mode ->
          let* until = int_field g 2 until in
          let* mode =
            match mode with
            | [] -> Ok Freeze
            | m :: _ -> (
                match String.trim m with
                | "freeze" -> Ok Freeze
                | "amnesia" -> Ok Amnesia
                | m -> field_error g 3 m "is not a crash mode")
          in
          Ok (crash node ~from ~until ~mode))
  | parts -> arity_error g parts

let partition_grammar =
  {
    text = "CUT:FROM[:HEAL] with CUT either links u-v[,u-v...] or a vertex cut @n[,n...]";
    fields = [| "CUT"; "FROM"; "HEAL" |];
  }

let parse_cut cutspec =
  let cutspec = String.trim cutspec in
  let bad why = field_error partition_grammar 0 cutspec why in
  if cutspec = "" then bad "is empty"
  else if cutspec.[0] = '@' then
    let node v =
      match int_of_string_opt (String.trim v) with
      | Some i -> Ok i
      | None -> bad (Printf.sprintf "has non-integer node %S" v)
    in
    let body = String.sub cutspec 1 (String.length cutspec - 1) in
    let* vs = map_ok node (String.split_on_char ',' body) in
    Ok (Around vs)
  else
    let link l =
      match String.split_on_char '-' (String.trim l) with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Ok (a, b)
          | _ -> bad (Printf.sprintf "has non-integer link %S" l))
      | _ -> bad (Printf.sprintf "has malformed link %S (want u-v)" l)
    in
    let* es = map_ok link (String.split_on_char ',' cutspec) in
    Ok (Links es)

let parse_partition s =
  let g = partition_grammar in
  match String.split_on_char ':' s with
  | cut :: from :: rest when List.length rest <= 1 -> (
      let* cut = parse_cut cut in
      let* from = int_field g 1 from in
      match rest with
      | [] -> Ok (partition ~from cut)
      | heal :: _ ->
          let* heal = int_field g 2 heal in
          Ok (partition ~from ~heal cut))
  | parts -> arity_error g parts

let straggle_grammar =
  {
    text =
      "NODE:FROM[:UNTIL[:FACTOR]] (FACTOR 0 or omitted = stall, >= 2 = slowdown; empty \
       UNTIL = forever)";
    fields = [| "NODE"; "FROM"; "UNTIL"; "FACTOR" |];
  }

let parse_straggle s =
  let g = straggle_grammar in
  match String.split_on_char ':' s with
  | node :: from :: rest when List.length rest <= 2 ->
      let* node = int_field g 0 node in
      let* from = int_field g 1 from in
      (* an empty UNTIL keeps the window open forever (so a permanent
         slowdown is expressible as NODE:FROM::FACTOR) *)
      let* until =
        match rest with
        | [] -> Ok None
        | v :: _ when String.trim v = "" -> Ok None
        | v :: _ -> Result.map Option.some (int_field g 2 v)
      in
      let* factor = match rest with [ _; f ] -> int_field g 3 f | _ -> Ok 0 in
      Ok (straggle node ~from ?until ~factor)
  | parts -> arity_error g parts

let pp fmt t =
  let amnesia = List.length (List.filter (fun c -> c.mode = Amnesia) t.p.crashes) in
  let timing fmt () =
    if t.p.stragglers <> [] || t.p.link_latency > 0 || t.p.skew > 0 then
      Format.fprintf fmt " stragglers=%d latency<=%d skew<=%d"
        (List.length t.p.stragglers)
        t.p.link_latency t.p.skew
  in
  match t.decider with
  | Scripted _ ->
      Format.fprintf fmt "faults(scripted crashes=%d amnesia=%d partitions=%d%a)"
        (List.length t.p.crashes)
        amnesia
        (List.length t.p.partitions)
        timing ()
  | Rng _ ->
      Format.fprintf fmt
        "faults(seed=%d drop=%g dup=%g delay<=%d corrupt=%g crashes=%d amnesia=%d \
         partitions=%d%a)"
        t.seed t.p.drop t.p.duplicate t.p.max_delay t.p.corrupt
        (List.length t.p.crashes)
        amnesia
        (List.length t.p.partitions)
        timing ()
