let to_buffer buf g =
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  List.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "%d %d %.9g\n" u v w))
    (Graph.edges g)

let to_string g =
  let buf = Buffer.create 4096 in
  to_buffer buf g;
  Buffer.contents buf

let to_channel oc g = output_string oc (to_string g)

let to_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc g)

let of_lines lines =
  let builder = ref None in
  let line_no = ref 0 in
  Seq.iter
    (fun line ->
      incr line_no;
      let line = String.trim line in
      if (not (String.equal line "")) && not (Char.equal line.[0] '#') then
        match (!builder, String.split_on_char ' ' line) with
        | None, [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some n when n > 0 -> builder := Some (Graph.Builder.create n)
            | _ -> failwith (Printf.sprintf "line %d: bad node count" !line_no))
        | None, _ ->
            failwith (Printf.sprintf "line %d: expected 'n <count>' header" !line_no)
        | Some b, [ u; v; w ] -> (
            match
              (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w)
            with
            | Some u, Some v, Some w -> Graph.Builder.add_edge b u v w
            | _ -> failwith (Printf.sprintf "line %d: bad edge" !line_no))
        | Some _, _ -> failwith (Printf.sprintf "line %d: bad edge line" !line_no))
    lines;
  match !builder with
  | None -> failwith "empty graph file"
  | Some b -> Graph.Builder.build b

let of_string s = of_lines (String.split_on_char '\n' s |> List.to_seq)
let of_channel ic = of_string (In_channel.input_all ic)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let to_dot ?(highlight = []) g =
  let buf = Buffer.create 4096 in
  let hot = Hashtbl.create 16 in
  let rec mark = function
    | u :: (v :: _ as rest) ->
        Hashtbl.replace hot (min u v, max u v) ();
        mark rest
    | _ -> ()
  in
  mark highlight;
  let on_route = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace on_route v ()) highlight;
  Buffer.add_string buf "graph disco {\n  node [shape=circle fontsize=10];\n";
  for v = 0 to Graph.n g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%d\"%s];\n" v v
         (if Hashtbl.mem on_route v then " style=filled fillcolor=salmon" else ""))
  done;
  List.iter
    (fun (u, v, w) ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%.3g\"%s];\n" u v w
           (if Hashtbl.mem hot (u, v) then " color=red penwidth=2" else "")))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
