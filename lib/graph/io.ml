let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n"
       (if Digraph.directed g then "digraph" else "graph")
       (Digraph.n g) (Digraph.m g));
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (if e.Digraph.label = 0 then
           Printf.sprintf "%d %d %d\n" e.Digraph.src e.Digraph.dst e.Digraph.weight
         else
           Printf.sprintf "%d %d %d %d\n" e.Digraph.src e.Digraph.dst e.Digraph.weight
             e.Digraph.label))
    (Digraph.edges g);
  Buffer.contents buf

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> invalid_arg "Io.of_string: empty input"
  | (lno, header) :: rest -> (
      let fail lno msg = invalid_arg (Printf.sprintf "Io.of_string: line %d: %s" lno msg) in
      let directed, n, m =
        match String.split_on_char ' ' header |> List.filter (( <> ) "") with
        | [ (("graph" | "digraph") as kind); n; m ] -> (
            match (int_of_string_opt n, int_of_string_opt m) with
            | Some n, Some m when n >= 0 && m >= 0 -> (kind = "digraph", n, m)
            | _ -> fail lno "expected '<graph|digraph> <n> <m>' with n, m >= 0")
        | _ -> fail lno "expected '<graph|digraph> <n> <m>'"
      in
      if List.length rest <> m then
        fail lno (Printf.sprintf "expected %d edge lines, found %d" m (List.length rest));
      (* every check Digraph.create_labeled makes, made here so the
         error names the edge's own line *)
      let parse_edge (lno, line) =
        let ((s, d, w, _) as edge) =
          match
            String.split_on_char ' ' line
            |> List.filter (( <> ) "")
            |> List.map int_of_string_opt
          with
          | [ Some s; Some d; Some w ] -> (s, d, w, 0)
          | [ Some s; Some d; Some w; Some l ] -> (s, d, w, l)
          | _ -> fail lno "expected '<src> <dst> <weight> [label]'"
        in
        List.iter
          (fun v ->
            if v < 0 || v >= n then
              fail lno (Printf.sprintf "vertex %d out of range [0,%d)" v n))
          [ s; d ];
        if w < 0 then fail lno (Printf.sprintf "negative weight %d" w);
        edge
      in
      Digraph.create_labeled ~directed n (List.map parse_edge rest))

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let to_dot g =
  let buf = Buffer.create 1024 in
  let directed = Digraph.directed g in
  Buffer.add_string buf (if directed then "digraph G {\n" else "graph G {\n");
  let arrow = if directed then "->" else "--" in
  Array.iter
    (fun e ->
      let label =
        if e.Digraph.label = 0 then string_of_int e.Digraph.weight
        else Printf.sprintf "%d:%d" e.Digraph.weight e.Digraph.label
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d %s %d [label=\"%s\"];\n" e.Digraph.src arrow
           e.Digraph.dst label))
    (Digraph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
