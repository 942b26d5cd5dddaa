module Digraph = Repro_graph.Digraph
module Metrics = Repro_congest.Metrics
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives
module Nice = Repro_treedec.Nice

type 'a result = { value : 'a; witness : int list; table_words : int }

exception Witness_failure of string

let () =
  Printexc.register_printer (function
    | Witness_failure detail -> Some (Printf.sprintf "Dp.Witness_failure: %s" detail)
    | _ -> None)

let witness_failure fmt = Printf.ksprintf (fun s -> raise (Witness_failure s)) fmt

let bot = min_int / 4
let top = max_int / 4

let adjacency g =
  let tbl = Hashtbl.create (Digraph.m g) in
  Array.iter
    (fun e ->
      if e.Digraph.src <> e.Digraph.dst then begin
        Hashtbl.replace tbl (e.Digraph.src, e.Digraph.dst) ();
        Hashtbl.replace tbl (e.Digraph.dst, e.Digraph.src) ()
      end)
    (Digraph.edges (Digraph.skeleton g));
  fun u v -> Hashtbl.mem tbl (u, v)

let index_of bag v =
  let rec go i = if bag.(i) = v then i else go (i + 1) in
  go 0

(* nice-tree depth: the number of sequential table exchanges *)
let rec depth (t : Nice.t) =
  match t.Nice.node with
  | Nice.Leaf -> 1
  | Nice.Introduce (_, c) | Nice.Forget (_, c) -> 1 + depth c
  | Nice.Join (a, b) -> 1 + max (depth a) (depth b)

let charge g nice ~table_words ~metrics ~label =
  let parts = Part.make_unchecked g [| Array.init (Digraph.n g) Fun.id |] in
  let b = Primitives.basis parts ~metrics in
  Metrics.add metrics ~label (depth nice * Primitives.bct_rounds b ~h:table_words)

let max_bag_size (t : Nice.t) =
  let rec go acc = function
    | [] -> acc
    | (t : Nice.t) :: rest ->
        let acc = max acc (Array.length t.Nice.bag) in
        let rest =
          match t.Nice.node with
          | Nice.Leaf -> rest
          | Nice.Introduce (_, c) | Nice.Forget (_, c) -> c :: rest
          | Nice.Join (a, b) -> a :: b :: rest
        in
        go acc rest
  in
  go 0 [ t ]

(* ------------------------------------------------------------------ *)
(* Maximum weight independent set *)

let max_weight_independent_set ?weights g nice ~metrics =
  let w v = match weights with Some ws -> ws.(v) | None -> 1 in
  let adj = adjacency g in
  let bmax = max_bag_size nice in
  if bmax > 20 then
    invalid_arg "Dp.max_weight_independent_set: decomposition width too large";
  (* solve returns (values indexed by bag subset mask, witness mask -> set) *)
  let rec solve (t : Nice.t) : int array * (int -> int list) =
    let bag = t.Nice.bag in
    let b = Array.length bag in
    match t.Nice.node with
    | Nice.Leaf -> ([| 0 |], fun _ -> [])
    | Nice.Introduce (v, c) ->
        let vc, recon_c = solve c in
        let vi = index_of bag v in
        let child_bit i = if i < vi then i else i - 1 in
        let compress m =
          let mc = ref 0 in
          for i = 0 to b - 1 do
            if i <> vi && m land (1 lsl i) <> 0 then mc := !mc lor (1 lsl child_bit i)
          done;
          !mc
        in
        let values =
          Array.init (1 lsl b) (fun m ->
              let mc = compress m in
              if m land (1 lsl vi) = 0 then vc.(mc)
              else begin
                let conflict = ref false in
                for i = 0 to b - 1 do
                  if i <> vi && m land (1 lsl i) <> 0 && adj v bag.(i) then
                    conflict := true
                done;
                if !conflict || vc.(mc) <= bot then bot else vc.(mc) + w v
              end)
        in
        let recon m =
          let rest = recon_c (compress m) in
          if m land (1 lsl vi) <> 0 then v :: rest else rest
        in
        (values, recon)
    | Nice.Forget (v, c) ->
        let vc, recon_c = solve c in
        let cbag = (match t.Nice.node with Nice.Forget (_, cc) -> cc.Nice.bag | _ -> assert false) in
        let ci = index_of cbag v in
        let expand m keep =
          (* insert bit [keep] for v at child position ci *)
          let low = m land ((1 lsl ci) - 1) in
          let high = (m lsr ci) lsl (ci + 1) in
          low lor high lor (keep lsl ci)
        in
        let values =
          Array.init (1 lsl b) (fun m -> max vc.(expand m 0) vc.(expand m 1))
        in
        let recon m =
          if vc.(expand m 1) > vc.(expand m 0) then recon_c (expand m 1)
          else recon_c (expand m 0)
        in
        (values, recon)
    | Nice.Join (a, bb) ->
        let va, recon_a = solve a in
        let vb, recon_b = solve bb in
        let mask_weight m =
          let acc = ref 0 in
          for i = 0 to b - 1 do
            if m land (1 lsl i) <> 0 then acc := !acc + w bag.(i)
          done;
          !acc
        in
        let values =
          Array.init (1 lsl b) (fun m ->
              if va.(m) <= bot || vb.(m) <= bot then bot
              else va.(m) + vb.(m) - mask_weight m)
        in
        let recon m = recon_a m @ recon_b m in
        (values, recon)
  in
  let values, recon = solve nice in
  let value = values.(0) in
  let witness = List.sort_uniq compare (recon 0) in
  (* verify the witness *)
  List.iter
    (fun u ->
      List.iter (fun v -> if u <> v && adj u v then witness_failure "mis: witness vertices %d and %d are adjacent" u v)
        witness)
    witness;
  let wsum = List.fold_left (fun acc v -> acc + w v) 0 witness in
  if wsum <> value then witness_failure "mis: witness weighs %d, table says %d" wsum value;
  let table_words = 1 lsl bmax in
  charge g nice ~table_words ~metrics ~label:"dp/mis";
  { value; witness; table_words }

let min_vertex_cover g nice ~metrics =
  let r = max_weight_independent_set g nice ~metrics in
  let n = Digraph.n g in
  let in_is = Array.make n false in
  List.iter (fun v -> in_is.(v) <- true) r.witness;
  let cover = List.filter (fun v -> not in_is.(v)) (List.init n Fun.id) in
  (* verify: every edge covered *)
  Array.iter
    (fun e ->
      if e.Digraph.src <> e.Digraph.dst && in_is.(e.Digraph.src) && in_is.(e.Digraph.dst)
      then witness_failure "mvc: edge %d-%d not covered" e.Digraph.src e.Digraph.dst)
    (Digraph.edges (Digraph.skeleton g));
  { value = n - r.value; witness = cover; table_words = r.table_words }

(* ------------------------------------------------------------------ *)
(* Minimum dominating set: 3-state DP (0 = black/in set, 1 = white/
   dominated, 2 = grey/not yet dominated) over base-3 masks. *)

let pow3 = Array.init 14 (fun i -> int_of_float (3.0 ** float_of_int i))

let state m i = m / pow3.(i) mod 3
let set_state m i s = m + ((s - state m i) * pow3.(i))

let min_dominating_set g nice ~metrics =
  let adj = adjacency g in
  let bmax = max_bag_size nice in
  if bmax > 12 then invalid_arg "Dp.min_dominating_set: decomposition width too large";
  let rec solve (t : Nice.t) : int array * (int -> int list) =
    let bag = t.Nice.bag in
    let b = Array.length bag in
    match t.Nice.node with
    | Nice.Leaf -> ([| 0 |], fun _ -> [])
    | Nice.Introduce (v, c) ->
        let vc, recon_c = solve c in
        let vi = index_of bag v in
        let compress m =
          (* drop v's trit *)
          let mc = ref 0 and j = ref 0 in
          for i = 0 to b - 1 do
            if i <> vi then begin
              mc := !mc + (state m i * pow3.(!j));
              incr j
            end
          done;
          !mc
        in
        (* bag neighbors of v (parent positions, excluding v) *)
        let nbrs =
          List.filter (fun i -> i <> vi && adj v bag.(i)) (List.init b Fun.id)
        in
        let child_pos i = if i < vi then i else i - 1 in
        let values_and_choice =
          Array.init pow3.(b) (fun m ->
              let sv = state m vi in
              let mc = compress m in
              match sv with
              | 2 -> (vc.(mc), mc)
              | 1 ->
                  (* white at introduce: must already be dominated by a
                     black bag neighbor *)
                  if List.exists (fun i -> state m i = 0) nbrs then (vc.(mc), mc)
                  else (top, mc)
              | 0 ->
                  (* black: each white bag neighbor may have been grey in
                     the child (v dominates it now) *)
                  let white_nbrs = List.filter (fun i -> state m i = 1) nbrs in
                  let k = List.length white_nbrs in
                  let best = ref top and best_mc = ref mc in
                  for sub = 0 to (1 lsl k) - 1 do
                    let mc' = ref mc in
                    List.iteri
                      (fun idx i ->
                        if sub land (1 lsl idx) <> 0 then
                          mc' := set_state !mc' (child_pos i) 2)
                      white_nbrs;
                    if vc.(!mc') < !best then begin
                      best := vc.(!mc');
                      best_mc := !mc'
                    end
                  done;
                  ((if !best >= top then top else !best + 1), !best_mc)
              | _ -> assert false)
        in
        let values = Array.map fst values_and_choice in
        let recon m =
          let v_included = state m vi = 0 in
          let mc = snd values_and_choice.(m) in
          let rest = recon_c mc in
          if v_included then v :: rest else rest
        in
        (values, recon)
    | Nice.Forget (v, c) ->
        let vc, recon_c = solve c in
        let cbag = (match t.Nice.node with Nice.Forget (_, cc) -> cc.Nice.bag | _ -> assert false) in
        let ci = index_of cbag v in
        let expand m s =
          (* insert trit s for v at child position ci *)
          let low = m mod pow3.(ci) in
          let high = m / pow3.(ci) * pow3.(ci + 1) in
          low + high + (s * pow3.(ci))
        in
        let values =
          Array.init pow3.(b) (fun m -> min vc.(expand m 0) vc.(expand m 1))
        in
        let recon m =
          if vc.(expand m 0) <= vc.(expand m 1) then recon_c (expand m 0)
          else recon_c (expand m 1)
        in
        (values, recon)
    | Nice.Join (a, bb) ->
        let va, recon_a = solve a in
        let vb, recon_b = solve bb in
        let values_and_choice =
          Array.init pow3.(b) (fun m ->
              let whites = List.filter (fun i -> state m i = 1) (List.init b Fun.id) in
              let blacks =
                List.length (List.filter (fun i -> state m i = 0) (List.init b Fun.id))
              in
              let k = List.length whites in
              let best = ref top and best_pair = ref (m, m) in
              for sub = 0 to (1 lsl k) - 1 do
                (* whites in [sub] are dominated on side a, the rest on b *)
                let ma = ref m and mb = ref m in
                List.iteri
                  (fun idx i ->
                    if sub land (1 lsl idx) <> 0 then mb := set_state !mb i 2
                    else ma := set_state !ma i 2)
                  whites;
                if va.(!ma) < top && vb.(!mb) < top then begin
                  let v = va.(!ma) + vb.(!mb) - blacks in
                  if v < !best then begin
                    best := v;
                    best_pair := (!ma, !mb)
                  end
                end
              done;
              (!best, !best_pair))
        in
        let values = Array.map fst values_and_choice in
        let recon m =
          let ma, mb = snd values_and_choice.(m) in
          recon_a ma @ recon_b mb
        in
        (values, recon)
  in
  let values, recon = solve nice in
  let value = values.(0) in
  let witness = List.sort_uniq compare (recon 0) in
  (* verify domination *)
  let n = Digraph.n g in
  let dominated = Array.make n false in
  let skeleton = Digraph.skeleton g in
  List.iter
    (fun v ->
      dominated.(v) <- true;
      Array.iter (fun u -> dominated.(u) <- true) (Digraph.neighbors skeleton v))
    witness;
  if not (Array.for_all Fun.id dominated) then witness_failure "domset: some vertex is not dominated";
  if List.length witness <> value then
    witness_failure "domset: witness has %d vertices, table says %d" (List.length witness) value;
  let table_words = pow3.(bmax) in
  charge g nice ~table_words ~metrics ~label:"dp/domset";
  { value; witness; table_words }

(* ------------------------------------------------------------------ *)
(* Steiner tree: partition-state DP. A state is (selected bag subset,
   canonical partition of the selected vertices into connected blocks,
   closed flag). Edges are bought when their later endpoint is
   introduced; a component may only be closed (its last bag vertex
   forgotten while still a singleton block) if it is the unique block —
   the finished tree. *)

type skey = { smask : int; spart : int list; closed : bool }

let canonical_partition part =
  let map = Hashtbl.create 8 in
  let next = ref 0 in
  List.map
    (fun b ->
      match Hashtbl.find_opt map b with
      | Some c -> c
      | None ->
          let c = !next in
          incr next;
          Hashtbl.add map b c;
          c)
    part

let selected_positions mask b =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init b Fun.id)

let steiner_tree g nice ~terminals ~metrics =
  let n = Digraph.n g in
  let bmax = max_bag_size nice in
  if bmax > 8 then invalid_arg "Dp.steiner_tree: decomposition width too large";
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  (* cheapest undirected edge between two vertices: (weight, edge id) *)
  let best_edge = Hashtbl.create (Digraph.m g) in
  Array.iter
    (fun e ->
      if e.Digraph.src <> e.Digraph.dst then begin
        let record u v =
          let cand = (e.Digraph.weight, e.Digraph.id) in
          match Hashtbl.find_opt best_edge (u, v) with
          | Some old when old <= cand -> ()
          | _ -> Hashtbl.replace best_edge (u, v) cand
        in
        record e.Digraph.src e.Digraph.dst;
        record e.Digraph.dst e.Digraph.src
      end)
    (Digraph.edges g);
  let max_states = ref 1 in
  let add tbl key cost edges =
    match Hashtbl.find_opt tbl key with
    | Some (c, _) when c <= cost -> ()
    | _ -> Hashtbl.replace tbl key (cost, edges)
  in
  let rec solve (t : Nice.t) =
    let bag = t.Nice.bag in
    let b = Array.length bag in
    let out : (skey, int * int list) Hashtbl.t = Hashtbl.create 64 in
    (match t.Nice.node with
    | Nice.Leaf -> add out { smask = 0; spart = []; closed = false } 0 []
    | Nice.Introduce (v, c) ->
        let tc = solve c in
        let vi = index_of bag v in
        let parent_pos j = if j < vi then j else j + 1 in
        Hashtbl.iter
          (fun key (cost, edges) ->
            (* re-express the child mask in parent positions *)
            let cb = Array.length c.Nice.bag in
            let pmask0 = ref 0 in
            for j = 0 to cb - 1 do
              if key.smask land (1 lsl j) <> 0 then
                pmask0 := !pmask0 lor (1 lsl parent_pos j)
            done;
            let pmask0 = !pmask0 in
            (* (a) v stays out of the tree — impossible for terminals *)
            if not is_terminal.(v) then
              add out { key with smask = pmask0 } cost edges;
            (* (b) v joins the tree, possibly buying edges to selected
               bag neighbors *)
            if not key.closed then begin
              let sel = selected_positions pmask0 b in
              let candidates =
                List.filter
                  (fun i -> Hashtbl.mem best_edge (v, bag.(i)))
                  sel
              in
              let k = List.length candidates in
              for sub = 0 to (1 lsl k) - 1 do
                let bought = ref [] and extra = ref 0 in
                let picked = ref [] in
                List.iteri
                  (fun idx i ->
                    if sub land (1 lsl idx) <> 0 then begin
                      let w, ei = Hashtbl.find best_edge (v, bag.(i)) in
                      extra := !extra + w;
                      bought := ei :: !bought;
                      picked := i :: !picked
                    end)
                  candidates;
                (* new partition over selected parent positions (v fresh) *)
                let fresh = b + 1 in
                let positions = selected_positions (pmask0 lor (1 lsl vi)) b in
                let block = Hashtbl.create 8 in
                List.iteri
                  (fun idx i -> Hashtbl.replace block i (List.nth key.spart idx))
                  sel;
                Hashtbl.replace block vi fresh;
                (* union v's block with the blocks of picked neighbors *)
                List.iter
                  (fun i ->
                    let bi = Hashtbl.find block i in
                    let bv = Hashtbl.find block vi in
                    if bi <> bv then
                      Hashtbl.iter
                        (fun j bj -> if bj = bi then Hashtbl.replace block j bv)
                        (Hashtbl.copy block))
                  !picked;
                let part =
                  canonical_partition (List.map (fun i -> Hashtbl.find block i) positions)
                in
                add out
                  { smask = pmask0 lor (1 lsl vi); spart = part; closed = false }
                  (cost + !extra) (!bought @ edges)
              done
            end)
          tc
    | Nice.Forget (v, c) ->
        let tc = solve c in
        let cbag = c.Nice.bag in
        let ci = index_of cbag v in
        let parent_mask mc =
          let low = mc land ((1 lsl ci) - 1) in
          let high = (mc lsr (ci + 1)) lsl ci in
          low lor high
        in
        Hashtbl.iter
          (fun key (cost, edges) ->
            if key.smask land (1 lsl ci) = 0 then
              add out { key with smask = parent_mask key.smask } cost edges
            else begin
              let sel = selected_positions key.smask (Array.length cbag) in
              let rank =
                let rec go r = function
                  | [] -> assert false
                  | i :: rest -> if i = ci then r else go (r + 1) rest
                in
                go 0 sel
              in
              let bv = List.nth key.spart rank in
              let others = List.filteri (fun i _ -> i <> rank) key.spart in
              if List.mem bv others then
                (* block survives through other members *)
                add out
                  {
                    smask = parent_mask key.smask;
                    spart = canonical_partition others;
                    closed = key.closed;
                  }
                  cost edges
              else if others = [] && not key.closed then
                (* the unique block closes: the tree is finished *)
                add out
                  { smask = parent_mask key.smask; spart = []; closed = true }
                  cost edges
              (* otherwise: a component would disconnect — invalid *)
            end)
          tc
    | Nice.Join (a, b2) ->
        let ta = solve a and tb = solve b2 in
        Hashtbl.iter
          (fun ka (costa, ea) ->
            Hashtbl.iter
              (fun kb (costb, eb) ->
                if ka.smask = kb.smask then
                  if ka.closed && kb.closed then ()
                  else if ka.closed || kb.closed then begin
                    (* one side finished: the other must be entirely empty *)
                    if ka.smask = 0 && ka.spart = [] && kb.spart = [] then
                      add out { smask = 0; spart = []; closed = true } (costa + costb)
                        (ea @ eb)
                  end
                  else begin
                    (* merge partitions over the same selected set *)
                    let k = List.length ka.spart in
                    let parent = Array.init k Fun.id in
                    let rec find i = if parent.(i) = i then i else find parent.(i) in
                    let union i j =
                      let ri = find i and rj = find j in
                      if ri <> rj then parent.(ri) <- rj
                    in
                    let link part =
                      let seen = Hashtbl.create 8 in
                      List.iteri
                        (fun i bi ->
                          match Hashtbl.find_opt seen bi with
                          | Some j -> union i j
                          | None -> Hashtbl.add seen bi i)
                        part
                    in
                    link ka.spart;
                    link kb.spart;
                    let merged =
                      canonical_partition (List.init k (fun i -> find i))
                    in
                    add out { smask = ka.smask; spart = merged; closed = false }
                      (costa + costb) (ea @ eb)
                  end)
              tb)
          ta);
    if Hashtbl.length out > !max_states then max_states := Hashtbl.length out;
    out
  in
  match terminals with
  | [] -> { value = 0; witness = []; table_words = 1 }
  | _ -> (
      let table = solve nice in
      match Hashtbl.find_opt table { smask = 0; spart = []; closed = true } with
      | None -> invalid_arg "Dp.steiner_tree: terminals cannot be connected"
      | Some (value, edges) ->
          let witness = List.sort_uniq compare edges in
          (* verify: witness connects all terminals at the stated weight *)
          let weight =
            List.fold_left
              (fun acc ei -> acc + (Digraph.edge g ei).Digraph.weight)
              0 witness
          in
          if weight <> value then witness_failure "steiner: witness weighs %d, table says %d" weight value;
          let sub =
            Digraph.create ~directed:false n
              (List.map
                 (fun ei ->
                   let e = Digraph.edge g ei in
                   (e.Digraph.src, e.Digraph.dst, e.Digraph.weight))
                 witness)
          in
          (match terminals with
          | [] -> ()
          | t0 :: rest ->
              let dist = Repro_graph.Traversal.bfs_undirected sub t0 in
              List.iter
                (fun t ->
                  if dist.(t) >= Digraph.inf then
                    witness_failure "steiner: witness does not connect terminal %d" t)
                rest);
          let table_words = 3 * !max_states in
          charge g nice ~table_words ~metrics ~label:"dp/steiner";
          { value; witness; table_words })
