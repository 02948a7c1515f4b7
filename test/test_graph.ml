module Graph = Disco_graph.Graph

let triangle () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 1 2 2.0;
  Graph.Builder.add_edge b 0 2 4.0;
  Graph.Builder.build b

let test_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0)

let test_self_loop_rejected () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.Builder.add_edge: self-loop")
    (fun () -> Graph.Builder.add_edge b 1 1 1.0)

let test_bad_weight_rejected () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "zero weight" (Invalid_argument "Graph.Builder.add_edge: weight <= 0")
    (fun () -> Graph.Builder.add_edge b 0 1 0.0)

let test_duplicate_keeps_min () =
  let b = Graph.Builder.create 2 in
  Graph.Builder.add_edge b 0 1 5.0;
  Graph.Builder.add_edge b 1 0 2.0;
  Graph.Builder.add_edge b 0 1 9.0;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "single edge" 1 (Graph.m g);
  Alcotest.(check (option (float 1e-9))) "min weight" (Some 2.0) (Graph.edge_weight g 0 1)

let test_neighbors_sorted () =
  let b = Graph.Builder.create 5 in
  Graph.Builder.add_edge b 2 4 1.0;
  Graph.Builder.add_edge b 2 0 1.0;
  Graph.Builder.add_edge b 2 3 1.0;
  let g = Graph.Builder.build b in
  Alcotest.(check (list int)) "sorted" [ 0; 3; 4 ] (List.map fst (Graph.neighbors g 2))

let test_neighbor_rank_inverse () =
  let g = triangle () in
  for u = 0 to 2 do
    for i = 0 to Graph.degree g u - 1 do
      let v, _ = Graph.nth_neighbor g u i in
      Alcotest.(check (option int)) "rank(nth) = i" (Some i) (Graph.neighbor_rank g u v)
    done
  done

let test_neighbor_rank_missing () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_edge b 0 1 1.0;
  let g = Graph.Builder.build b in
  Alcotest.(check (option int)) "no edge" None (Graph.neighbor_rank g 0 3)

let test_edge_weight_symmetric () =
  let g = triangle () in
  Alcotest.(check (option (float 1e-9))) "0-2" (Some 4.0) (Graph.edge_weight g 0 2);
  Alcotest.(check (option (float 1e-9))) "2-0" (Some 4.0) (Graph.edge_weight g 2 0)

let test_edges_once () =
  let g = triangle () in
  let es = Graph.edges g in
  Alcotest.(check int) "3 edges" 3 (List.length es);
  List.iter (fun (u, v, _) -> Alcotest.(check bool) "u < v" true (u < v)) es

let test_connectivity () =
  let g = triangle () in
  Alcotest.(check bool) "triangle connected" true (Graph.is_connected g);
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 2 3 1.0;
  Alcotest.(check bool) "two components" false (Graph.is_connected (Graph.Builder.build b))

let prop_degree_sum =
  Helpers.qtest "sum of degrees = 2m" ~count:50 Helpers.seed_arb (fun seed ->
      let g = Helpers.random_graph seed in
      let sum = ref 0 in
      for u = 0 to Graph.n g - 1 do
        sum := !sum + Graph.degree g u
      done;
      !sum = 2 * Graph.m g)

let prop_rank_roundtrip =
  Helpers.qtest "neighbor_rank inverts nth_neighbor" ~count:30 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_graph seed in
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        for i = 0 to Graph.degree g u - 1 do
          let v, _ = Graph.nth_neighbor g u i in
          if Graph.neighbor_rank g u v <> Some i then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "bad weight rejected" `Quick test_bad_weight_rejected;
    Alcotest.test_case "duplicate keeps min weight" `Quick test_duplicate_keeps_min;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "neighbor rank inverse" `Quick test_neighbor_rank_inverse;
    Alcotest.test_case "neighbor rank missing" `Quick test_neighbor_rank_missing;
    Alcotest.test_case "edge weight symmetric" `Quick test_edge_weight_symmetric;
    Alcotest.test_case "edges listed once" `Quick test_edges_once;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    prop_degree_sum;
    prop_rank_roundtrip;
  ]
