module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Landmarks = Disco_core.Landmarks
module Tree_address = Disco_core.Tree_address

let build seed =
  let g = Helpers.random_weighted_graph seed in
  let rng = Rng.create seed in
  let lms = Landmarks.build ~rng ~params:Disco_core.Params.default g in
  (g, lms, Tree_address.build g lms)

let test_labels_unique_per_tree () =
  let g, lms, ta = build 3 in
  let per_tree = Hashtbl.create 8 in
  for v = 0 to Graph.n g - 1 do
    let lm = lms.Landmarks.nearest.(v) in
    let key = (lm, Tree_address.label_of ta v) in
    if Hashtbl.mem per_tree key then Alcotest.failf "duplicate label in tree %d" lm;
    Hashtbl.add per_tree key ()
  done

let test_route_matches_forest () =
  let g, lms, ta = build 5 in
  for v = 0 to Graph.n g - 1 do
    let via_labels = Tree_address.route ta v in
    let via_forest = Landmarks.address_route lms v in
    Alcotest.(check (list int))
      (Printf.sprintf "node %d" v)
      via_forest via_labels
  done

let test_bits_is_log_n () =
  let g, _, ta = build 7 in
  let n = Graph.n g in
  Alcotest.(check bool) "2^bits >= n" true (1 lsl Tree_address.bits ta >= n);
  Alcotest.(check bool) "2^(bits-1) < n" true (1 lsl (Tree_address.bits ta - 1) < n)

let test_byte_size () =
  let _, _, ta = build 9 in
  Alcotest.(check int) "ipv4 + label bytes"
    (4 + ((Tree_address.bits ta + 7) / 8))
    (Tree_address.byte_size ~name_bytes:4 ta)

let test_landmark_root_label () =
  let g, lms, ta = build 11 in
  Array.iter
    (fun lm -> Alcotest.(check int) "root gets block start" 0 (Tree_address.label_of ta lm))
    lms.Landmarks.ids;
  ignore g

let test_ring_topology () =
  (* On a ring the explicit route needs n/2 bits but the tree address stays
     at log2 n — the §4.2 trade-off in the extreme case. *)
  let n = 64 in
  let g = Gen.ring ~n in
  let lms = Landmarks.of_ids g [| 0 |] in
  let ta = Tree_address.build g lms in
  Alcotest.(check int) "log2 n bits" 6 (Tree_address.bits ta);
  for v = 0 to n - 1 do
    let r = Tree_address.route ta v in
    Alcotest.(check int) "route reaches v" v (List.nth r (List.length r - 1))
  done

let suite =
  [
    Alcotest.test_case "labels unique per tree" `Quick test_labels_unique_per_tree;
    Alcotest.test_case "route matches forest" `Quick test_route_matches_forest;
    Alcotest.test_case "bits = ceil log2 n" `Quick test_bits_is_log_n;
    Alcotest.test_case "byte size" `Quick test_byte_size;
    Alcotest.test_case "landmark root label" `Quick test_landmark_root_label;
    Alcotest.test_case "ring topology" `Quick test_ring_topology;
  ]
