(* Deterministic hash-table iteration. Hashtbl's iteration order
   depends on insertion history and the hash function, so any
   order-sensitive consumer of [iter]/[fold] is a reproducibility bug
   (the [hashtbl-order] lint rule). This module is the one audited spot
   allowed to touch raw iteration: everything order-sensitive goes
   through a sort on the caller's key comparison, and the only
   order-insensitive escape hatch is a boolean predicate. *)

exception Found

let exists p tbl =
  (* order-insensitive by construction: a boolean OR over bindings
     [lint: hashtbl-order] *)
  try
    Hashtbl.iter (fun k v -> if p k v then raise Found) tbl;
    false
  with Found -> true

let bindings tbl ~compare:cmp =
  (* the fold order is irrelevant: sorted before returning
     [lint: hashtbl-order] *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, _) (kb, _) -> cmp ka kb)

let iter_sorted tbl ~compare:cmp f = List.iter (fun (k, v) -> f k v) (bindings tbl ~compare:cmp)
