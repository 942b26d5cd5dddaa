(* Seeded violation (send-discipline): a [step] callback charges the
   Metrics counters directly instead of letting the engine account for
   the words it emits. Parsed by test_lint only — never compiled. *)

let run graph metrics =
  let init _node = 0 in
  let step _node st inbox =
    Metrics.add_count metrics Words (List.length inbox);
    st
  in
  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)
