module Graph = Disco_graph.Graph
module Bits = Disco_util.Bits

type cost = {
  name_bytes : int;
  label_bytes : int;
  id_list_bytes : int;
  total : int;
}

let id_bits g =
  let n = Graph.n g in
  if n <= 1 then 1 else Bits.width_for n

let needs_id_list = function
  | Shortcut.Up_down_stream | Shortcut.Path_knowledge -> true
  | Shortcut.No_shortcut | Shortcut.To_destination | Shortcut.Shorter_fwd_rev
  | Shortcut.No_path_knowledge -> false

let make (d : Disco.t) ~route ~with_ids ~name_bytes =
  let g = d.Disco.nd.Nddisco.graph in
  let label_bytes = Address.route_byte_size (Address.make g ~route) in
  let id_list_bytes =
    if with_ids then (List.length route * id_bits g + 7) / 8 else 0
  in
  { name_bytes; label_bytes; id_list_bytes;
    total = name_bytes + label_bytes + id_list_bytes }

let first_packet d ~heuristic ~name_bytes ~src ~dst =
  let route = Disco.route_first ~heuristic d ~src ~dst in
  make d ~route ~with_ids:(needs_id_list heuristic) ~name_bytes

let later_packet d ~name_bytes ~src ~dst =
  let route = Disco.route_later d ~src ~dst in
  make d ~route ~with_ids:false ~name_bytes
