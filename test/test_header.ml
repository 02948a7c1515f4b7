module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Core = Disco_core
module Header = Disco_core.Header

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Core.Disco.build ~rng:(Rng.create seed) g)

let test_components_sum () =
  let _, d = build 3 in
  let c =
    Header.first_packet d ~heuristic:Core.Shortcut.No_path_knowledge ~name_bytes:20
      ~src:0 ~dst:7
  in
  Alcotest.(check int) "total = parts"
    (c.Header.name_bytes + c.Header.label_bytes + c.Header.id_list_bytes)
    c.Header.total;
  Alcotest.(check int) "name bytes" 20 c.Header.name_bytes

let test_no_ids_without_path_knowledge () =
  let _, d = build 5 in
  List.iter
    (fun h ->
      let c = Header.first_packet d ~heuristic:h ~name_bytes:20 ~src:1 ~dst:9 in
      Alcotest.(check int) (Core.Shortcut.name h ^ " carries no id list") 0
        c.Header.id_list_bytes)
    [ Core.Shortcut.No_shortcut; Core.Shortcut.To_destination;
      Core.Shortcut.No_path_knowledge ]

let test_path_knowledge_pays_for_ids () =
  let g, d = build 7 in
  let n = Graph.n g in
  let some_positive = ref false in
  for s = 0 to min 10 (n - 1) do
    for t = 0 to min 10 (n - 1) do
      if s <> t then begin
        let c =
          Header.first_packet d ~heuristic:Core.Shortcut.Path_knowledge ~name_bytes:20
            ~src:s ~dst:t
        in
        let route = Core.Disco.route_first ~heuristic:Core.Shortcut.Path_knowledge d ~src:s ~dst:t in
        let bits = Disco_util.Bits.width_for n in
        Alcotest.(check int) "id list sized to route"
          ((List.length route * bits + 7) / 8)
          c.Header.id_list_bytes;
        if c.Header.id_list_bytes > 0 then some_positive := true
      end
    done
  done;
  Alcotest.(check bool) "ids actually cost bytes" true !some_positive

let test_label_bytes_match_route () =
  (* The header's label bytes are the packed Address of the actual
     route. *)
  let g, d = build 11 in
  let heuristic = Core.Shortcut.No_path_knowledge in
  let route = Core.Disco.route_first ~heuristic d ~src:2 ~dst:8 in
  let addr = Core.Address.make g ~route in
  let c = Header.first_packet d ~heuristic ~name_bytes:20 ~src:2 ~dst:8 in
  Alcotest.(check int) "label bytes" (Core.Address.route_byte_size addr) c.Header.label_bytes

(* --- the explicit-route labels a header carries ---

   The header's label field is the packed Address of the route, so these
   drive Address.make / Address.decode on hand-built paths. *)

let roundtrip g path =
  match path with
  | [] -> ()
  | src :: _ ->
      let addr = Core.Address.make g ~route:path in
      Alcotest.(check (list int)) "decode inverts encode" path
        (Core.Address.decode g ~landmark:src ~labels:addr.Core.Address.labels
           ~hops:(Core.Address.hops addr));
      let expected_bits =
        (* One label per hop, sized by the forwarding node's degree. *)
        let rec widths = function
          | [] | [ _ ] -> 0
          | u :: (_ :: _ as rest) ->
              Disco_util.Bits.width_for (Graph.degree g u) + widths rest
        in
        widths path
      in
      Alcotest.(check int) "bit length is sum of hop widths" expected_bits
        addr.Core.Address.label_bits

let test_labels_roundtrip_boundary_widths () =
  (* A path graph: interior degree 2 (1-bit labels), endpoints degree 1
     (0-bit labels) — the first hop of [0; 1; ...] costs zero bits. *)
  let line n =
    let b = Graph.Builder.create n in
    for v = 0 to n - 2 do
      Graph.Builder.add_edge b v (v + 1) 1.0
    done;
    Graph.Builder.build b
  in
  let g = line 9 in
  roundtrip g [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
  roundtrip g [ 4; 3; 2; 1; 0 ];
  roundtrip g [ 0; 1 ];
  (* Star with a power-of-two degree hub: hub labels are exactly
     width_for 16 = 4 bits, leaf labels 0 bits. *)
  let hub = Graph.Builder.create 17 in
  for leaf = 1 to 16 do
    Graph.Builder.add_edge hub 0 leaf 1.0
  done;
  let g = Graph.Builder.build hub in
  roundtrip g [ 3; 0; 16 ];
  roundtrip g [ 0; 7 ];
  (* Degree 17 = power of two + 1 pushes the width to 5 bits. *)
  let hub = Graph.Builder.create 18 in
  for leaf = 1 to 17 do
    Graph.Builder.add_edge hub 0 leaf 1.0
  done;
  let g = Graph.Builder.build hub in
  let addr = Core.Address.make g ~route:[ 17; 0; 1 ] in
  Alcotest.(check int) "0 + 5 bits" 5 addr.Core.Address.label_bits;
  Alcotest.(check (list int)) "roundtrip" [ 17; 0; 1 ]
    (Core.Address.decode g ~landmark:17 ~labels:addr.Core.Address.labels ~hops:2)

let test_labels_single_node_path () =
  let g, _ = build 13 in
  let addr = Core.Address.make g ~route:[ 0 ] in
  Alcotest.(check int) "no hops, no bits" 0 addr.Core.Address.label_bits;
  Alcotest.(check (list int)) "decodes to itself" [ 0 ]
    (Core.Address.decode g ~landmark:0 ~labels:addr.Core.Address.labels ~hops:0)

let test_labels_reject_non_path () =
  let g = Helpers.random_weighted_graph 21 in
  let non_edge =
    let n = Graph.n g in
    let found = ref None in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if !found = None && u <> v && Graph.edge_weight g u v = None then
          found := Some (u, v)
      done
    done;
    !found
  in
  match non_edge with
  | None -> () (* complete graph; nothing to reject *)
  | Some (u, v) ->
      Alcotest.check_raises "non-path rejected"
        (Invalid_argument "Address.make: route is not a path")
        (fun () -> ignore (Core.Address.make g ~route:[ u; v ]))

let suite =
  [
    Alcotest.test_case "components sum" `Quick test_components_sum;
    Alcotest.test_case "no ids without path knowledge" `Quick test_no_ids_without_path_knowledge;
    Alcotest.test_case "path knowledge pays for ids" `Quick test_path_knowledge_pays_for_ids;
    Alcotest.test_case "label bytes match route" `Quick test_label_bytes_match_route;
    Alcotest.test_case "label roundtrip at boundary widths" `Quick
      test_labels_roundtrip_boundary_widths;
    Alcotest.test_case "single-node path" `Quick test_labels_single_node_path;
    Alcotest.test_case "non-path rejected" `Quick test_labels_reject_non_path;
  ]
