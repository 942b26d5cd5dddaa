module Pqueue = Repro_graph.Pqueue
module Event = Repro_obs.Event
module Sink = Repro_obs.Sink

(* Process-wide dials, installed by the CLIs the same way as
   [Engine.audit_enabled]: the algorithm layers never thread them. *)
let forced = ref false
let deadline = ref 0

(* Consecutive blown deadlines before a neighbor is cut. *)
let max_strikes = 3

(* Exponential backoff on the pulse deadline is capped so the budget
   stays a sane int even for pathological strike counts. *)
let max_backoff_shift = 20

(* Wire-leg salts: the k-th copy of a data message, its acknowledgement
   and the SAFE fan-out draw independent latencies. [leg_safe] = 2 is
   disjoint from every [3k] / [3k + 1]. *)
let leg_data k = 3 * k
let leg_ack k = (3 * k) + 1
let leg_safe = 2

(* One wire crossing: a copy spends [1 + latency] virtual-time units in
   flight. Pure hash of the adversary seed (see {!Fault.latency}), so
   consulting it in event order leaves the fate RNG stream untouched. *)
let wire faults ~round ~src ~dst ~leg =
  match faults with
  | None -> 1
  | Some f -> 1 + Fault.latency f ~round ~src ~dst ~leg

(* Lateness allowance against a neighbor already holding [strikes]
   strikes: the base deadline, doubled per consecutive miss. *)
let strike_allowance ~strikes = !deadline lsl min strikes max_backoff_shift

type t = {
  faults : Fault.t option;
  neighbors : int array array;
  n : int;
  down : round:int -> int -> bool;
  metrics : Metrics.t;
  sink : Sink.t;
  (* the event queue of pulse starts, keyed [vt * n + node]: equal
     virtual times break by ascending node id, so pop order is a
     function of the pushed set — never of heap-internal operation
     order. Virtual times are bounded by max_rounds x stall_factor x
     (1 + link latency), far below [max_int / n] for any graph the
     simulator handles, so the key cannot overflow. *)
  queue : int Pqueue.t;
  step_end : int array;
  safe_vt : int array;
  (* high-water mark of physical arrival timestamps into the inbox
     being assembled for the next pulse, per destination — plus the
     sender holding that mark and the best mark among the *other*
     senders, so deadline pacing can judge each neighbor's arrival
     term against the rest of the gate *)
  inbox_vt : int array;
  inbox_src : int array;
  inbox_vt2 : int array;
  sa_scratch : int array;
  stepped : bool array;
  (* deadline pacing: consecutive blown deadlines per directed neighbor
     pair (key [u * n + v]: v waiting on u), and the set of pairs v has
     cut; only populated when the deadline dial is on *)
  strikes : (int, int) Hashtbl.t;
  cut : (int, unit) Hashtbl.t;
}

let push t ~vt v = Pqueue.push t.queue ((vt * t.n) + v) v

let start faults ~neighbors ~down ~metrics ~sink =
  let n = Array.length neighbors in
  let t =
    {
      faults;
      neighbors;
      n;
      down;
      metrics;
      sink;
      queue = Pqueue.create ();
      step_end = Array.make n 0;
      safe_vt = Array.make n 0;
      inbox_vt = Array.make n 0;
      inbox_src = Array.make n (-1);
      inbox_vt2 = Array.make n 0;
      sa_scratch = Array.make n 0;
      stepped = Array.make n false;
      strikes = Hashtbl.create 8;
      cut = Hashtbl.create 8;
    }
  in
  (* pulse 0 starts at each node's clock-skew offset *)
  for v = 0 to n - 1 do
    push t ~vt:(match faults with None -> 0 | Some f -> Fault.skew_of f v) v
  done;
  t

(* no hash while nothing is cut: every delivery and gate asks *)
let is_cut t ~src ~dst = Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut ((src * t.n) + dst)

let dispatch t ~round step =
  Array.fill t.stepped 0 (Array.length t.stepped) false;
  let tracing = t.sink.Sink.enabled in
  while not (Pqueue.is_empty t.queue) do
    let prio, v = Pqueue.pop_min t.queue in
    let vt = prio / t.n in
    if not (t.down ~round v) then begin
      let factor = match t.faults with None -> 1 | Some f -> Fault.straggle_factor f ~round v in
      t.step_end.(v) <- vt + max 1 factor;
      (* the SAFE point starts at the step's end; acknowledgements of
         the copies committed for this pulse raise it *)
      t.safe_vt.(v) <- t.step_end.(v);
      Metrics.add_count t.metrics Pulses 1;
      if factor <> 1 then begin
        Metrics.add_count t.metrics Straggles 1;
        if tracing then Sink.emit t.sink (Event.Straggle { round; node = v; factor; vt })
      end;
      if tracing then Sink.emit t.sink (Event.Pulse { round; node = v; vt });
      step v;
      t.stepped.(v) <- true
    end
  done

(* A copy leaves [src] when its step ends and crosses the wire; its
   acknowledgement crosses back (drops are sender-detectable: the NACK
   arrives on the same schedule as the ack it replaces) and raises the
   sender's SAFE point. Returns the copy's physical arrival time. *)
let transmit t ~round ~src ~dst ~copy =
  let arr = t.step_end.(src) + wire t.faults ~round ~src ~dst ~leg:(leg_data copy) in
  let ack = arr + wire t.faults ~round ~src:dst ~dst:src ~leg:(leg_ack copy) in
  if ack > t.safe_vt.(src) then t.safe_vt.(src) <- ack;
  arr

let arrived t ~src ~dst arr =
  if arr > t.inbox_vt.(dst) then begin
    if t.inbox_src.(dst) <> src && t.inbox_vt.(dst) > t.inbox_vt2.(dst) then
      t.inbox_vt2.(dst) <- t.inbox_vt.(dst);
    t.inbox_vt.(dst) <- arr;
    t.inbox_src.(dst) <- src
  end
  else if t.inbox_src.(dst) <> src && arr > t.inbox_vt2.(dst) then t.inbox_vt2.(dst) <- arr

let commit t ~round send =
  let tracing = t.sink.Sink.enabled in
  for v = 0 to t.n - 1 do
    if t.stepped.(v) then begin
      send v;
      Metrics.add_count t.metrics Virtual_time t.safe_vt.(v);
      (* SAFE fan-out to live neighbors (a cutter still receives and
         ignores the cuttee's SAFE — the cut is its local decision,
         invisible to the straggler) *)
      let nb = t.neighbors.(v) in
      for i = 0 to Array.length nb - 1 do
        if not (t.down ~round nb.(i)) then Metrics.add_count t.metrics Safe_messages 1
      done;
      if tracing then Sink.emit t.sink (Event.Safe { round; node = v; vt = t.safe_vt.(v) })
    end
  done

(* a node's gate waits on a neighbor that pulsed and that it has not cut *)
let waits_on t v u = u <> v && t.stepped.(u) && not (is_cut t ~src:u ~dst:v)

(* The α gate — each node starts its next pulse once its own step and
   SAFE are done, every copy addressed into that pulse has physically
   arrived, and every live uncut neighbor's SAFE for this pulse has
   reached it. Deadline pacing never shortens the wait directly; it
   watches for a neighbor whose terms ALONE hold the gate open past
   everything else the node is waiting for — a relative criterion: lag
   a neighbor merely inherits from a straggler deeper in the graph is
   shared by the rest of the gate and cancels out, so cuts single out
   the chronic bottleneck instead of cascading ring by ring — and cuts
   it after max_strikes consecutive blown allowances. *)
let gate t ~round =
  let deadline_on = !deadline > 0 in
  let tracing = t.sink.Sink.enabled in
  for v = 0 to t.n - 1 do
    let own = max t.step_end.(v) t.safe_vt.(v) in
    let gate = ref (max own t.inbox_vt.(v)) in
    if t.stepped.(v) then begin
      let nb = t.neighbors.(v) in
      (* first pass: neighbor SAFE arrivals, tracking the top two (by
         distinct sender) for the per-neighbor runner-up term *)
      let sa_best = ref 0 and sa_best_u = ref (-1) and sa_second = ref 0 in
      let eligible = ref 0 in
      for i = 0 to Array.length nb - 1 do
        let u = nb.(i) in
        if waits_on t v u then begin
          let sa = t.safe_vt.(u) + wire t.faults ~round ~src:u ~dst:v ~leg:leg_safe in
          t.sa_scratch.(u) <- sa;
          incr eligible;
          if sa > !sa_best then begin
            sa_second := !sa_best;
            sa_best := sa;
            sa_best_u := u
          end
          else if sa > !sa_second then sa_second := sa;
          if sa > !gate then gate := sa
        end
      done;
      (* striking needs an independent witness: with a single eligible
         neighbor there is no reference separating the neighbor's own
         lag from lag it merely inherits, and cutting your only neighbor
         just disconnects yourself *)
      if deadline_on && !eligible >= 2 then
        for i = 0 to Array.length nb - 1 do
          let u = nb.(i) in
          if waits_on t v u then begin
            let arr_u, arr_rest =
              if t.inbox_src.(v) = u then (t.inbox_vt.(v), t.inbox_vt2.(v))
              else (0, t.inbox_vt.(v))
            in
            let sa_rest = if !sa_best_u = u then !sa_second else !sa_best in
            let rest = max own (max arr_rest sa_rest) in
            let u_term = max t.sa_scratch.(u) arr_u in
            let key = (u * t.n) + v in
            let s = match Hashtbl.find_opt t.strikes key with Some s -> s | None -> 0 in
            if u_term - rest > 2 * strike_allowance ~strikes:s then begin
              let s = s + 1 in
              if s >= max_strikes then begin
                Hashtbl.replace t.cut key ();
                Hashtbl.remove t.strikes key;
                if tracing then
                  Sink.emit t.sink
                    (Event.Straggler_cut { round; node = v; peer = u; vt = u_term })
              end
              else Hashtbl.replace t.strikes key s
            end
            else Hashtbl.remove t.strikes key
          end
        done
    end;
    t.inbox_vt.(v) <- 0;
    t.inbox_src.(v) <- -1;
    t.inbox_vt2.(v) <- 0;
    push t ~vt:!gate v
  done
