(* Growable ring buffer of events. The backing array doubles until it
   reaches [capacity]; past that point the ring wraps and the oldest
   events are overwritten (counted in [overwritten]) so a runaway run
   cannot exhaust memory. *)

type t = {
  capacity : int;
  mutable buf : Event.t array;
  mutable first : int;  (* index of the oldest event *)
  mutable len : int;
  mutable overwritten : int;
}

(* Array.make needs a witness value; any constant event works and is
   never observable (only the first [len] logical slots are read). *)
let filler = Event.Round_end { round = 0 }

let default_capacity = 1 lsl 22

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be positive";
  { capacity; buf = Array.make (min capacity 1024) filler; first = 0; len = 0; overwritten = 0 }

let length t = t.len
let overwritten t = t.overwritten

let clear t =
  t.first <- 0;
  t.len <- 0;
  t.overwritten <- 0

let grow t =
  let old = t.buf in
  let n = Array.length old in
  let n' = min t.capacity (n * 2) in
  let buf = Array.make n' filler in
  for i = 0 to t.len - 1 do
    buf.(i) <- old.((t.first + i) mod n)
  done;
  t.buf <- buf;
  t.first <- 0

let record t e =
  let n = Array.length t.buf in
  if t.len = n && n < t.capacity then grow t;
  let n = Array.length t.buf in
  if t.len < n then begin
    t.buf.((t.first + t.len) mod n) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* full at hard capacity: overwrite the oldest *)
    t.buf.(t.first) <- e;
    t.first <- (t.first + 1) mod n;
    t.overwritten <- t.overwritten + 1
  end

let to_list t =
  let n = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.first + i) mod n))

let sink t = Sink.make (record t)
