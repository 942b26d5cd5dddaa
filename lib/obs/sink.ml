(* The single interface instrumented code sees. Emit sites must guard
   with [enabled] BEFORE constructing an event so the disabled path
   allocates nothing:

     if sink.enabled then Sink.emit sink (Event.Send { ... })

   The engine holds a [t ref] and never references a concrete sink
   implementation (Recorder, file writers, ...). *)

type t = { enabled : bool; emit : Event.t -> unit }

let null = { enabled = false; emit = ignore }
let make emit = { enabled = true; emit }
(* on the guarded hot path of every emit site: must not allocate *)
let emit t e = t.emit e
