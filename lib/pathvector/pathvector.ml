module Graph = Disco_graph.Graph
module Sim = Disco_sim.Sim

type mode =
  | Full
  | Landmarks_and_k_closest of { landmarks : bool array; k : int }
  | Landmarks_and_radius of { landmarks : bool array; radius : float array }

type route = { dist : float; path : int list }

type announcement = { a_dest : int; a_dist : float; a_path : int list }

type result = {
  tables : (int, route) Hashtbl.t array;
  total_messages : int;
  adj_rib_entries : int array;
}

let is_landmark mode v =
  match mode with
  | Full -> false
  | Landmarks_and_k_closest { landmarks; _ } | Landmarks_and_radius { landmarks; _ }
    -> landmarks.(v)

(* Whether a table that lacks [dest] admits a route of length [dist] to it
   (evicting a farther one, in the k-closest mode, to make room). *)
let admits mode table ~dest ~dist =
  match mode with
  | Full -> true
  | Landmarks_and_radius { landmarks; radius } -> landmarks.(dest) || dist < radius.(dest)
  | Landmarks_and_k_closest { landmarks; k } ->
      landmarks.(dest) || Admission.admit table ~k ~dist

let run ?telemetry ~graph ~mode () =
  let n = Graph.n graph in
  let sim = Sim.create ?telemetry ~graph () in
  (* The self entry is bookkeeping, not vicinity state: never counted. *)
  let tables =
    Array.init n (fun v ->
        Admission.create ~counted:(fun d _ -> d <> v && not (is_landmark mode d))
          ~dist:(fun r -> r.dist) 64)
  in
  (* (neighbor, dest) pairs for which an announcement would sit in a
     non-forgetful adjacency RIB: one bit per (arc node -> neighbor, dest),
     and the count of bits set per node. *)
  let adj_rib = Bytes.make (((2 * Graph.m graph * n) + 7) / 8) '\000' in
  let adj_rib_entries = Array.make n 0 in
  let hear node src dest =
    match Graph.edge_index graph node src with
    | None -> ()
    | Some arc ->
        let bit = (arc * n) + dest in
        let byte = Char.code (Bytes.get adj_rib (bit lsr 3)) in
        let mask = 1 lsl (bit land 7) in
        if byte land mask = 0 then begin
          Bytes.set adj_rib (bit lsr 3) (Char.chr (byte lor mask));
          adj_rib_entries.(node) <- adj_rib_entries.(node) + 1
        end
  in
  let announce node dest =
    match Hashtbl.find_opt tables.(node).routes dest with
    | None -> ()
    | Some r ->
        Graph.iter_neighbors graph node (fun nbr _ ->
            Sim.send sim ~src:node ~dst:nbr
              { a_dest = dest; a_dist = r.dist; a_path = r.path })
  in
  let handler node ~src { a_dest; a_dist; a_path } =
    if a_dest <> node && not (List.mem node a_path) then begin
      hear node src a_dest;
      match Graph.edge_weight graph node src with
      | None -> ()
      | Some w ->
          let dist = a_dist +. w in
          let table = tables.(node) in
          let admitted =
            match Hashtbl.find_opt table.routes a_dest with
            | Some r -> dist < r.dist
            | None -> admits mode table ~dest:a_dest ~dist
          in
          if admitted then begin
            Admission.replace table a_dest { dist; path = node :: a_path };
            announce node a_dest
          end
    end
  in
  Sim.set_handler sim handler;
  (* Every node originates itself at t=0. *)
  for v = 0 to n - 1 do
    Admission.replace tables.(v) v { dist = 0.0; path = [ v ] };
    Sim.schedule sim ~delay:0.0 (fun () -> announce v v)
  done;
  Sim.run sim;
  (* Self-entries are not routing state; drop them before reporting. *)
  Array.iteri (fun v table -> Admission.remove table v) tables;
  {
    tables = Array.map (fun t -> t.Admission.routes) tables;
    total_messages = Sim.messages_sent sim;
    adj_rib_entries;
  }

let table_sizes r = Array.map Hashtbl.length r.tables
