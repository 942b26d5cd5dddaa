module Labeling = Repro_core.Labeling
module Digraph = Repro_graph.Digraph

type cdl_source = { q_size : int; start : int; label : int -> Labeling.t }
type source = { n : int; dist : int -> Labeling.t; cdl : cdl_source option }

let of_store st =
  {
    n = Store.n st;
    dist = Store.dist_label st;
    cdl =
      (if Store.has_cdl st then
         Some
           {
             q_size = Store.q_size st;
             start = Store.start_state st;
             label = Store.cdl_label st;
           }
       else None);
  }

type t = Dist of { u : int; v : int } | Cdl of { u : int; v : int; q : int }

let parse src line =
  let ( let* ) = Result.bind in
  let field op name hi s =
    match int_of_string_opt s with
    | None -> Error (Printf.sprintf "%s: %s: expected an int, got %S" op name s)
    | Some x when x < 0 || x >= hi ->
        Error (Printf.sprintf "%s: %s: %d out of range [0,%d)" op name x hi)
    | Some x -> Ok x
  in
  (* tabs, CRs and LFs separate fields like spaces: a CRLF query stream
     leaves a '\r' on every line *)
  match
    String.map (function '\t' | '\r' | '\n' -> ' ' | c -> c) line
    |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "")
  with
  | [ "DIST"; u; v ] ->
      let* u = field "DIST" "u" src.n u in
      let* v = field "DIST" "v" src.n v in
      Ok (Dist { u; v })
  | "DIST" :: rest ->
      Error (Printf.sprintf "DIST: expected 2 fields (u v), got %d" (List.length rest))
  | [ "CDL"; u; v; q ] -> (
      match src.cdl with
      | None -> Error "CDL: this source has no constrained labels"
      | Some c ->
          let* u = field "CDL" "u" src.n u in
          let* v = field "CDL" "v" src.n v in
          let* q = field "CDL" "q" c.q_size q in
          Ok (Cdl { u; v; q }))
  | "CDL" :: rest ->
      Error (Printf.sprintf "CDL: expected 3 fields (u v q), got %d" (List.length rest))
  | op :: _ -> Error (Printf.sprintf "unknown op %S: expected DIST or CDL" op)
  | [] -> Error "empty query"

(* the query's injective int encoding, the cache key *)
let key src q =
  match q with
  | Dist { u; v } -> (u * src.n) + v
  | Cdl { u; v; q } ->
      let qs = match src.cdl with Some c -> c.q_size | None -> 1 in
      (src.n * src.n) + ((((u * src.n) + v) * qs) + q)

let compute src q =
  match q with
  | Dist { u; v } -> Labeling.decode (src.dist u) (src.dist v)
  | Cdl { u; v; q } -> (
      match src.cdl with
      | None -> invalid_arg "Query.answer: CDL query against a source without CDL labels"
      | Some c ->
          Labeling.decode
            (c.label ((u * c.q_size) + c.start))
            (c.label ((v * c.q_size) + q)))

let answer ?cache src q =
  match cache with
  | None -> compute src q
  | Some c ->
      let k = key src q in
      let v = Cache.find c k in
      if v <> Cache.absent then v
      else begin
        let v = compute src q in
        Cache.add c k v;
        v
      end

let print_answer d = if d >= Digraph.inf then "inf" else string_of_int d
