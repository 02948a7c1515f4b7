module Graph = Disco_graph.Graph
module Bits = Disco_util.Bits

type t = { landmark : int; route : int array; labels : bytes; label_bits : int }

let make g ~route =
  match route with
  | [] -> invalid_arg "Address.make: empty route"
  | landmark :: _ ->
      let writer = Bits.Writer.create () in
      let rec encode = function
        | [] | [ _ ] -> ()
        | u :: (v :: _ as rest) ->
            (match Graph.neighbor_rank g u v with
            | None -> invalid_arg "Address.make: route is not a path"
            | Some rank ->
                Bits.Writer.put writer rank ~width:(Bits.width_for (Graph.degree g u)));
            encode rest
      in
      encode route;
      {
        landmark;
        route = Array.of_list route;
        labels = Bits.Writer.to_bytes writer;
        label_bits = Bits.Writer.bit_length writer;
      }

let of_parts ~landmark ~route ~labels ~label_bits = { landmark; route; labels; label_bits }

let decode g ~landmark ~labels ~hops =
  let reader = Bits.Reader.of_bytes labels in
  let rec walk u remaining acc =
    if remaining = 0 then List.rev (u :: acc)
    else begin
      let rank = Bits.Reader.get reader ~width:(Bits.width_for (Graph.degree g u)) in
      let v, _ = Graph.nth_neighbor g u rank in
      walk v (remaining - 1) (u :: acc)
    end
  in
  walk landmark hops []

let hops t = Array.length t.route - 1
let route_byte_size t = (t.label_bits + 7) / 8
let byte_size ~name_bytes t = name_bytes + route_byte_size t

let pp ppf t =
  Format.fprintf ppf "@[<h>lm=%d route=[%s] %d bits (%d B)@]" t.landmark
    (String.concat ";" (Array.to_list (Array.map string_of_int t.route)))
    t.label_bits (route_byte_size t)
