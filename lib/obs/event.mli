(** Typed trace-event vocabulary for the CONGEST engine.

    Events are self-contained (plain ints/strings), so traces can be
    serialized, parsed and analyzed without the engine's message
    types. Round conventions match the engine: [Send] carries the
    round whose outbox produced the message; [Deliver]/[Drop] carry
    both that send round and the round at which the copy reached (or
    failed to reach) the destination inbox. *)

type drop_reason =
  | Link  (** the adversary destroyed the copy on the wire *)
  | Receiver_down  (** the copy arrived at a node that was crashed *)
  | Severed  (** the link was cut by an active partition window *)
  | Garbled
      (** the copy was corrupted in flight and the raw engine discarded
          it as undecodable (frame-level CRC semantics; layers with a
          corruption transform receive the garbled copy instead) *)
  | Straggler
      (** the receiver had cut the sender as a chronic straggler
          (deadline-paced asynchronous mode) and discarded its copy *)

type t =
  | Run_start of { label : string; faulty : bool }
      (** emitted once per [Engine.run]; [faulty] records whether an
          adversary was attached, which is what record/replay keys on *)
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
      (** static description of an adversary crash window, emitted at
          [Run_start] time so replay can reconstruct the profile *)
  | Checkpoint of { round : int; node : int; words : int }
  | Recovery_resync of { round : int; node : int }
  | Partition of { round : int; src : int; dst : int }
      (** link [src - dst] went down at [round] (a partition window
          opened over it); emitted once per link per transition *)
  | Heal of { round : int; src : int; dst : int }
      (** link [src - dst] came back up at [round] *)
  | Corrupt of { send_round : int; deliver_round : int; src : int; dst : int }
      (** one copy of the [send_round] message on [src -> dst] was
          garbled in flight, landing (or being discarded) at
          [deliver_round]; replay uses the pair of rounds to reattach
          the corrupt flag to the right copy *)
  | Nack of { round : int; src : int; dst : int; seq : int }
      (** [src] rejected a checksum-failing packet from [dst] and asked
          for an immediate retransmit of seq [seq] *)
  | Link_lost of { round : int; src : int; dst : int; seq : int; retries : int }
      (** [src] abandoned its link to [dst] after [retries]
          retransmissions of seq [seq] (the transport's [max_retries]
          cap) — the typed Link_down verdict *)
  | Suspect of { round : int; node : int; peer : int }
      (** failure detector: [node] started suspecting neighbor [peer] *)
  | Clear of { round : int; node : int; peer : int }
      (** failure detector: [node] heard from [peer] again and cleared
          its suspicion *)
  | Partition_window of {
      links : (int * int) list;
      nodes : int list;
      from_round : int;
      heal_round : int option;
    }
      (** static description of an adversary partition window (one of
          [links]/[nodes] is empty, mirroring [Fault.cut]), emitted at
          [Run_start] time so replay can reconstruct the profile *)
  | Pulse of { round : int; node : int; vt : int }
      (** α-synchronizer: [node] began pulse [round] at virtual time
          [vt] (asynchronous executor only; pulses coincide with the
          engine's logical rounds) *)
  | Safe of { round : int; node : int; vt : int }
      (** α-synchronizer: every copy [node] sent in pulse [round] was
          acknowledged by [vt]; its SAFE notification fans out to all
          live neighbors *)
  | Straggle of { round : int; node : int; factor : int; vt : int }
      (** [node] executed pulse [round] under an active straggler
          window: computation stretched by [factor] ([factor = 0]:
          stalled forever — the pulse never completes) *)
  | Skew of { node : int; offset : int }
      (** [node]'s virtual clock starts [offset] units late (bounded
          clock skew), emitted once per run *)
  | Straggler_cut of { round : int; node : int; peer : int; vt : int }
      (** deadline pacing: [node] stopped waiting for [peer]'s SAFE
          after [peer] blew the pulse deadline 3 times in a row;
          [peer]'s copies to [node] are dropped from here on *)
  | Straggle_window of {
      node : int;
      from_round : int;
      until_round : int option;
      factor : int;
    }
      (** static description of an adversary straggler window, emitted
          at [Run_start] time so replay can reconstruct the profile *)
  | Timing of { link_latency : int; skew : int; seed : int }
      (** static description of the profile's continuous timing
          dimensions plus the timing seed; timing draws are pure hashes
          of the seed, so this one event replays the entire
          virtual-time schedule *)

exception Parse_error of string

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal. *)

val to_json : t -> string
(** One flat JSON object, no trailing newline. *)

val of_json : string -> t
(** Inverse of {!to_json}; raises {!Parse_error} on malformed input. *)
