(* Typed trace-event vocabulary (DESIGN.md "Observability"). One
   constructor per observable model decision; every payload is plain
   integers/strings so events are self-contained and serializable
   without referencing engine or message types. Rounds follow the
   engine's convention: [Send.round] is the round the outbox was
   collected, [Deliver.round] the round whose inbox receives the copy
   (always > send_round). *)

type drop_reason =
  | Link  (* the adversary destroyed the copy on the wire *)
  | Receiver_down  (* the copy reached a crashed node at delivery time *)
  | Severed  (* the link was cut by an active partition window *)
  | Garbled  (* corrupted copy discarded as undecodable (no corrupt hook) *)
  | Straggler  (* the receiver cut the chronically late sender (deadline pacing) *)

type t =
  | Run_start of { label : string; faulty : bool }
  | Round_start of { round : int }
  | Round_end of { round : int }
  | Send of { round : int; src : int; dst : int; words : int }
  | Deliver of { send_round : int; round : int; src : int; dst : int; words : int }
  | Drop of {
      send_round : int;
      round : int;
      src : int;
      dst : int;
      words : int;
      reason : drop_reason;
    }
  | Duplicate of { round : int; src : int; dst : int; copies : int }
  | Delay of { round : int; src : int; dst : int; deliver_round : int }
  | Retransmit of { round : int; src : int; dst : int; seq : int }
  | Ack of { round : int; src : int; dst : int; seq : int }
  | Crash of { round : int; node : int }
  | Restart of { round : int; node : int }
  | Crash_window of {
      node : int;
      from_round : int;
      until_round : int option;
      amnesia : bool;
    }
  | Checkpoint of { round : int; node : int; words : int }
  | Recovery_resync of { round : int; node : int }
  | Partition of { round : int; src : int; dst : int }
  | Heal of { round : int; src : int; dst : int }
  | Corrupt of { send_round : int; deliver_round : int; src : int; dst : int }
  | Nack of { round : int; src : int; dst : int; seq : int }
  | Link_lost of { round : int; src : int; dst : int; seq : int; retries : int }
  | Suspect of { round : int; node : int; peer : int }
  | Clear of { round : int; node : int; peer : int }
  | Partition_window of {
      links : (int * int) list;
      nodes : int list;
      from_round : int;
      heal_round : int option;
    }
  | Pulse of { round : int; node : int; vt : int }
  | Safe of { round : int; node : int; vt : int }
  | Straggle of { round : int; node : int; factor : int; vt : int }
  | Skew of { node : int; offset : int }
  | Straggler_cut of { round : int; node : int; peer : int; vt : int }
  | Straggle_window of {
      node : int;
      from_round : int;
      until_round : int option;
      factor : int;
    }
  | Timing of { link_latency : int; skew : int; seed : int }

(* ------------------------------------------------------------------ *)
(* JSONL serialization. Each event is one flat JSON object whose "e"
   field names the constructor; remaining fields are ints except the
   run label. The parser below accepts exactly this shape. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* every drop reason's JSON name, for the writer and the parser alike *)
let drop_reasons =
  [
    (Link, "link");
    (Receiver_down, "receiver");
    (Severed, "severed");
    (Garbled, "garbled");
    (Straggler, "straggler");
  ]

let to_json = function
  | Run_start { label; faulty } ->
      Printf.sprintf {|{"e":"run_start","label":"%s","faulty":%d}|} (json_escape label)
        (if faulty then 1 else 0)
  | Round_start { round } -> Printf.sprintf {|{"e":"round_start","round":%d}|} round
  | Round_end { round } -> Printf.sprintf {|{"e":"round_end","round":%d}|} round
  | Send { round; src; dst; words } ->
      Printf.sprintf {|{"e":"send","round":%d,"src":%d,"dst":%d,"words":%d}|} round src dst
        words
  | Deliver { send_round; round; src; dst; words } ->
      Printf.sprintf
        {|{"e":"deliver","send_round":%d,"round":%d,"src":%d,"dst":%d,"words":%d}|}
        send_round round src dst words
  | Drop { send_round; round; src; dst; words; reason } ->
      Printf.sprintf
        {|{"e":"drop","send_round":%d,"round":%d,"src":%d,"dst":%d,"words":%d,"reason":"%s"}|}
        send_round round src dst words (List.assoc reason drop_reasons)
  | Duplicate { round; src; dst; copies } ->
      Printf.sprintf {|{"e":"duplicate","round":%d,"src":%d,"dst":%d,"copies":%d}|} round src
        dst copies
  | Delay { round; src; dst; deliver_round } ->
      Printf.sprintf {|{"e":"delay","round":%d,"src":%d,"dst":%d,"deliver_round":%d}|} round
        src dst deliver_round
  | Retransmit { round; src; dst; seq } ->
      Printf.sprintf {|{"e":"retransmit","round":%d,"src":%d,"dst":%d,"seq":%d}|} round src dst
        seq
  | Ack { round; src; dst; seq } ->
      Printf.sprintf {|{"e":"ack","round":%d,"src":%d,"dst":%d,"seq":%d}|} round src dst seq
  | Crash { round; node } -> Printf.sprintf {|{"e":"crash","round":%d,"node":%d}|} round node
  | Restart { round; node } ->
      Printf.sprintf {|{"e":"restart","round":%d,"node":%d}|} round node
  | Crash_window { node; from_round; until_round; amnesia } ->
      Printf.sprintf {|{"e":"crash_window","node":%d,"from":%d,"until":%d,"amnesia":%d}|} node
        from_round
        (match until_round with Some u -> u | None -> -1)
        (if amnesia then 1 else 0)
  | Checkpoint { round; node; words } ->
      Printf.sprintf {|{"e":"checkpoint","round":%d,"node":%d,"words":%d}|} round node words
  | Recovery_resync { round; node } ->
      Printf.sprintf {|{"e":"recovery_resync","round":%d,"node":%d}|} round node
  | Partition { round; src; dst } ->
      Printf.sprintf {|{"e":"partition","round":%d,"src":%d,"dst":%d}|} round src dst
  | Heal { round; src; dst } ->
      Printf.sprintf {|{"e":"heal","round":%d,"src":%d,"dst":%d}|} round src dst
  | Corrupt { send_round; deliver_round; src; dst } ->
      Printf.sprintf
        {|{"e":"corrupt","send_round":%d,"deliver_round":%d,"src":%d,"dst":%d}|} send_round
        deliver_round src dst
  | Nack { round; src; dst; seq } ->
      Printf.sprintf {|{"e":"nack","round":%d,"src":%d,"dst":%d,"seq":%d}|} round src dst seq
  | Link_lost { round; src; dst; seq; retries } ->
      Printf.sprintf {|{"e":"link_lost","round":%d,"src":%d,"dst":%d,"seq":%d,"retries":%d}|}
        round src dst seq retries
  | Suspect { round; node; peer } ->
      Printf.sprintf {|{"e":"suspect","round":%d,"node":%d,"peer":%d}|} round node peer
  | Clear { round; node; peer } ->
      Printf.sprintf {|{"e":"clear","round":%d,"node":%d,"peer":%d}|} round node peer
  | Partition_window { links; nodes; from_round; heal_round } ->
      Printf.sprintf {|{"e":"partition_window","links":"%s","nodes":"%s","from":%d,"heal":%d}|}
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) links))
        (String.concat "," (List.map string_of_int nodes))
        from_round
        (match heal_round with Some h -> h | None -> -1)
  | Pulse { round; node; vt } ->
      Printf.sprintf {|{"e":"pulse","round":%d,"node":%d,"vt":%d}|} round node vt
  | Safe { round; node; vt } ->
      Printf.sprintf {|{"e":"safe","round":%d,"node":%d,"vt":%d}|} round node vt
  | Straggle { round; node; factor; vt } ->
      Printf.sprintf {|{"e":"straggle","round":%d,"node":%d,"factor":%d,"vt":%d}|} round node
        factor vt
  | Skew { node; offset } ->
      Printf.sprintf {|{"e":"skew","node":%d,"offset":%d}|} node offset
  | Straggler_cut { round; node; peer; vt } ->
      Printf.sprintf {|{"e":"straggler_cut","round":%d,"node":%d,"peer":%d,"vt":%d}|} round
        node peer vt
  | Straggle_window { node; from_round; until_round; factor } ->
      Printf.sprintf {|{"e":"straggle_window","node":%d,"from":%d,"until":%d,"factor":%d}|}
        node from_round
        (match until_round with Some u -> u | None -> -1)
        factor
  | Timing { link_latency; skew; seed } ->
      Printf.sprintf {|{"e":"timing","link_latency":%d,"skew":%d,"seed":%d}|} link_latency
        skew seed

(* ------------------------------------------------------------------ *)
(* Parsing: a minimal scanner for the flat objects produced above
   (string and integer values only). Not a general JSON parser. *)

exception Parse_error of string

type value = Int of int | Str of string

let fields_of_line line =
  let n = String.length line in
  let fail msg = raise (Parse_error (Printf.sprintf "%s in %S" msg line)) in
  let pos = ref 0 in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let hex i =
    match line.[i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then fail "dangling escape";
            (match line.[!pos + 1] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | 'n' -> Buffer.add_char buf '\n'
            | 'u' ->
                (* [json_escape] writes every other control byte as
                   [\u00XX]; a code point past ASCII would need a UTF-8
                   encoding the writer never produces *)
                if !pos + 5 >= n || line.[!pos + 2] <> '0' || line.[!pos + 3] <> '0' then
                  fail "unsupported \\u escape";
                let c = (hex (!pos + 4) * 16) + hex (!pos + 5) in
                if c >= 0x80 then fail "unsupported \\u escape";
                Buffer.add_char buf (Char.chr c);
                pos := !pos + 4
            | c -> fail (Printf.sprintf "unsupported escape '\\%c'" c));
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if !pos < n && line.[!pos] = '-' then incr pos;
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected integer";
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad integer"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let key = parse_string () in
      expect ':';
      skip_ws ();
      let v = if !pos < n && line.[!pos] = '"' then Str (parse_string ()) else Int (parse_int ()) in
      fields := (key, v) :: !fields;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then incr pos
      else begin
        expect '}';
        continue := false
      end
    done
  end;
  List.rev !fields

let of_json line =
  let fields = fields_of_line line in
  let fail msg = raise (Parse_error (Printf.sprintf "%s in %S" msg line)) in
  let int key =
    match List.assoc_opt key fields with
    | Some (Int v) -> v
    | _ -> fail (Printf.sprintf "missing int field %S" key)
  in
  let str key =
    match List.assoc_opt key fields with
    | Some (Str v) -> v
    | _ -> fail (Printf.sprintf "missing string field %S" key)
  in
  match str "e" with
  | "run_start" -> Run_start { label = str "label"; faulty = int "faulty" <> 0 }
  | "round_start" -> Round_start { round = int "round" }
  | "round_end" -> Round_end { round = int "round" }
  | "send" -> Send { round = int "round"; src = int "src"; dst = int "dst"; words = int "words" }
  | "deliver" ->
      Deliver
        {
          send_round = int "send_round";
          round = int "round";
          src = int "src";
          dst = int "dst";
          words = int "words";
        }
  | "drop" ->
      Drop
        {
          send_round = int "send_round";
          round = int "round";
          src = int "src";
          dst = int "dst";
          words = int "words";
          reason =
            (let r = str "reason" in
             match List.find_opt (fun (_, name) -> name = r) drop_reasons with
             | Some (reason, _) -> reason
             | None -> fail (Printf.sprintf "unknown drop reason %S" r));
        }
  | "duplicate" ->
      Duplicate { round = int "round"; src = int "src"; dst = int "dst"; copies = int "copies" }
  | "delay" ->
      Delay
        {
          round = int "round";
          src = int "src";
          dst = int "dst";
          deliver_round = int "deliver_round";
        }
  | "retransmit" ->
      Retransmit { round = int "round"; src = int "src"; dst = int "dst"; seq = int "seq" }
  | "ack" -> Ack { round = int "round"; src = int "src"; dst = int "dst"; seq = int "seq" }
  | "crash" -> Crash { round = int "round"; node = int "node" }
  | "restart" -> Restart { round = int "round"; node = int "node" }
  | "crash_window" ->
      Crash_window
        {
          node = int "node";
          from_round = int "from";
          until_round = (match int "until" with -1 -> None | u -> Some u);
          amnesia = int "amnesia" <> 0;
        }
  | "checkpoint" -> Checkpoint { round = int "round"; node = int "node"; words = int "words" }
  | "recovery_resync" -> Recovery_resync { round = int "round"; node = int "node" }
  | "partition" -> Partition { round = int "round"; src = int "src"; dst = int "dst" }
  | "heal" -> Heal { round = int "round"; src = int "src"; dst = int "dst" }
  | "corrupt" ->
      Corrupt
        {
          send_round = int "send_round";
          deliver_round = int "deliver_round";
          src = int "src";
          dst = int "dst";
        }
  | "nack" -> Nack { round = int "round"; src = int "src"; dst = int "dst"; seq = int "seq" }
  | "link_lost" ->
      Link_lost
        {
          round = int "round";
          src = int "src";
          dst = int "dst";
          seq = int "seq";
          retries = int "retries";
        }
  | "suspect" -> Suspect { round = int "round"; node = int "node"; peer = int "peer" }
  | "clear" -> Clear { round = int "round"; node = int "node"; peer = int "peer" }
  | "partition_window" ->
      let ints_of s =
        if s = "" then []
        else
          List.map
            (fun v ->
              match int_of_string_opt v with
              | Some i -> i
              | None -> fail (Printf.sprintf "bad member %S" v))
            (String.split_on_char ',' s)
      in
      let links_of s =
        if s = "" then []
        else
          List.map
            (fun l ->
              match String.split_on_char '-' l with
              | [ a; b ] -> (
                  match (int_of_string_opt a, int_of_string_opt b) with
                  | Some a, Some b -> (a, b)
                  | _ -> fail (Printf.sprintf "bad link %S" l))
              | _ -> fail (Printf.sprintf "bad link %S" l))
            (String.split_on_char ',' s)
      in
      Partition_window
        {
          links = links_of (str "links");
          nodes = ints_of (str "nodes");
          from_round = int "from";
          heal_round = (match int "heal" with -1 -> None | h -> Some h);
        }
  | "pulse" -> Pulse { round = int "round"; node = int "node"; vt = int "vt" }
  | "safe" -> Safe { round = int "round"; node = int "node"; vt = int "vt" }
  | "straggle" ->
      Straggle { round = int "round"; node = int "node"; factor = int "factor"; vt = int "vt" }
  | "skew" -> Skew { node = int "node"; offset = int "offset" }
  | "straggler_cut" ->
      Straggler_cut
        { round = int "round"; node = int "node"; peer = int "peer"; vt = int "vt" }
  | "straggle_window" ->
      Straggle_window
        {
          node = int "node";
          from_round = int "from";
          until_round = (match int "until" with -1 -> None | u -> Some u);
          factor = int "factor";
        }
  | "timing" ->
      Timing { link_latency = int "link_latency"; skew = int "skew"; seed = int "seed" }
  | e -> fail (Printf.sprintf "unknown event kind %S" e)
