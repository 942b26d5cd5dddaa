module Digraph = Repro_graph.Digraph

type key = int list

type t = {
  graph : Digraph.t;
  bags : (key, int array) Hashtbl.t;
  child_count : (key, int) Hashtbl.t;
}

let parent = function
  | [] -> invalid_arg "Decomposition.parent: root has no parent"
  | x ->
      (* chop the tail character *)
      List.rev (List.tl (List.rev x))

let create g assoc =
  let bags = Hashtbl.create (List.length assoc) in
  List.iter
    (fun (k, b) ->
      if Hashtbl.mem bags k then invalid_arg "Decomposition.create: duplicate key";
      Hashtbl.add bags k (Array.copy b))
    assoc;
  if not (Hashtbl.mem bags []) then invalid_arg "Decomposition.create: missing root key";
  let child_count = Hashtbl.create (List.length assoc) in
  Hashtbl.iter
    (fun k _ ->
      if k <> [] then begin
        let p = parent k in
        if not (Hashtbl.mem bags p) then
          invalid_arg "Decomposition.create: key set not prefix-closed";
        let i = List.nth k (List.length k - 1) in
        let cur = Option.value ~default:0 (Hashtbl.find_opt child_count p) in
        Hashtbl.replace child_count p (max cur (i + 1))
      end)
    bags;
  (* contiguity of child indices *)
  Hashtbl.iter
    (fun k cnt ->
      for i = 0 to cnt - 1 do
        if not (Hashtbl.mem bags (k @ [ i ])) then
          invalid_arg "Decomposition.create: child indices not contiguous"
      done)
    child_count;
  { graph = g; bags; child_count }

let bag t k = Hashtbl.find t.bags k
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.bags []

let children t k =
  let cnt = Option.value ~default:0 (Hashtbl.find_opt t.child_count k) in
  List.init cnt Fun.id

let width t =
  Hashtbl.fold (fun _ b acc -> max acc (Array.length b - 1)) t.bags (-1)

let depth t = Hashtbl.fold (fun k _ acc -> max acc (List.length k)) t.bags 0
let bag_count t = Hashtbl.length t.bags

let keys_sorted t =
  List.sort
    (fun a b ->
      let la = List.length a and lb = List.length b in
      if la <> lb then compare la lb else compare a b)
    (keys t)

let canonical t v =
  let rec search = function
    | [] -> raise Not_found
    | k :: rest -> if Array.exists (fun u -> u = v) (bag t k) then k else search rest
  in
  search (keys_sorted t)

let prefixes k =
  let rec go acc cur = function
    | [] -> List.rev (cur :: acc)
    | c :: rest -> go (cur :: acc) (cur @ [ c ]) rest
  in
  go [] [] k

let b_up t v =
  let c = canonical t v in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun k -> Array.iter (fun u -> Hashtbl.replace seen u ()) (bag t k))
    (prefixes c);
  Array.of_list (List.sort compare (Hashtbl.fold (fun u () acc -> u :: acc) seen []))

let validate t =
  let g = t.graph in
  let n = Digraph.n g in
  let covered = Array.make n false in
  Hashtbl.iter (fun _ b -> Array.iter (fun v -> covered.(v) <- true) b) t.bags;
  match Array.to_list covered |> List.mapi (fun v c -> (v, c)) |> List.find_opt (fun (_, c) -> not c) with
  | Some (v, _) -> Error (Printf.sprintf "condition (a): vertex %d in no bag" v)
  | None -> (
      let skeleton = Digraph.skeleton g in
      let edge_ok e =
        let u = e.Digraph.src and v = e.Digraph.dst in
        Hashtbl.fold
          (fun _ b acc ->
            acc
            || (Array.exists (fun x -> x = u) b && Array.exists (fun x -> x = v) b))
          t.bags false
      in
      match Array.to_list (Digraph.edges skeleton) |> List.find_opt (fun e -> not (edge_ok e)) with
      | Some e ->
          Error
            (Printf.sprintf "condition (b): edge (%d,%d) in no bag" e.Digraph.src
               e.Digraph.dst)
      | None -> (
          (* condition (c): for each vertex, bags containing it form a
             connected subtree *)
          let bad = ref None in
          for v = 0 to n - 1 do
            if !bad = None then begin
              let holding =
                List.filter (fun k -> Array.exists (fun u -> u = v) (bag t k)) (keys t)
              in
              match holding with
              | [] -> ()
              | _ ->
                  let holds = Hashtbl.create 8 in
                  List.iter (fun k -> Hashtbl.replace holds k ()) holding;
                  (* connected iff every holding key except the shallowest
                     has its parent holding too *)
                  let shallowest =
                    List.fold_left
                      (fun acc k ->
                        match acc with
                        | None -> Some k
                        | Some b -> if List.length k < List.length b then Some k else acc)
                      None holding
                    |> Option.get
                  in
                  List.iter
                    (fun k ->
                      if k <> shallowest && (k = [] || not (Hashtbl.mem holds (parent k)))
                      then bad := Some (v, k))
                    holding
            end
          done;
          match !bad with
          | Some (v, _) ->
              Error (Printf.sprintf "condition (c): bags holding %d are disconnected" v)
          | None -> Ok ()))

let of_parent_tree g ~bags ~parents =
  let nb = Array.length bags in
  if Array.length parents <> nb then invalid_arg "Decomposition.of_parent_tree";
  let roots = ref [] in
  let child_lists = Array.make nb [] in
  Array.iteri
    (fun i p ->
      if p < 0 then roots := i :: !roots
      else child_lists.(p) <- i :: child_lists.(p))
    parents;
  let root =
    match !roots with
    | [ r ] -> r
    | _ -> invalid_arg "Decomposition.of_parent_tree: need exactly one root"
  in
  let assoc = ref [] in
  let rec assign key i =
    assoc := (key, bags.(i)) :: !assoc;
    List.iteri (fun idx c -> assign (key @ [ idx ]) c) (List.rev child_lists.(i))
  in
  assign [] root;
  create g !assoc

let pp fmt t =
  Format.fprintf fmt "tree decomposition: %d bags, width %d, depth %d" (bag_count t)
    (width t) (depth t)
