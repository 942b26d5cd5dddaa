module Digraph = Repro_graph.Digraph

type t = { owner : int; entries : (int, int * int) Hashtbl.t }

let create owner = { owner; entries = Hashtbl.create 16 }
let owner t = t.owner

(* Min-merge: entries for the same anchor may be produced at several
   decomposition levels (and by sibling subtrees sharing the pair); every
   produced value is the length of a real walk, so keeping the
   componentwise minimum is always sound and only improves precision. *)
let set t ~anchor ~d_to ~d_from =
  match Hashtbl.find_opt t.entries anchor with
  | Some (dt, df) -> Hashtbl.replace t.entries anchor (min dt d_to, min df d_from)
  | None -> Hashtbl.replace t.entries anchor (d_to, d_from)

let dist_to t anchor = Option.map fst (Hashtbl.find_opt t.entries anchor)
let dist_from t anchor = Option.map snd (Hashtbl.find_opt t.entries anchor)
let find t anchor = Hashtbl.find t.entries anchor

let anchors t =
  List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) t.entries [])

let decode la_u la_v =
  let best = ref Digraph.inf in
  Hashtbl.iter
    (fun anchor (d_to, _) ->
      match Hashtbl.find_opt la_v.entries anchor with
      | Some (_, d_from) ->
          if d_to < Digraph.inf && d_from < Digraph.inf && d_to + d_from < !best then
            best := d_to + d_from
      | None -> ())
    la_u.entries;
  !best

let size_words t = 3 * Hashtbl.length t.entries

let equal a b =
  a.owner = b.owner
  && Hashtbl.length a.entries = Hashtbl.length b.entries
  && List.for_all
       (fun anchor ->
         match (Hashtbl.find_opt a.entries anchor, Hashtbl.find_opt b.entries anchor) with
         | Some (dt, df), Some (dt', df') -> dt = dt' && df = df'
         | _ -> false)
       (anchors a)

let pp fmt t =
  Format.fprintf fmt "la(%d): %d anchors" t.owner (Hashtbl.length t.entries)

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.owner);
  List.iter
    (fun a ->
      let d_to, d_from = Hashtbl.find t.entries a in
      Buffer.add_string buf (Printf.sprintf " %d %d %d" a d_to d_from))
    (anchors t);
  Buffer.contents buf
