module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Nddisco = Disco_core.Nddisco
module Vicinity = Disco_core.Vicinity
module Landmarks = Disco_core.Landmarks
module Shortcut = Disco_core.Shortcut

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Nddisco.build ~rng:(Rng.create seed) g)

let test_addresses_decode () =
  let g, nd = build 3 in
  for v = 0 to Graph.n g - 1 do
    let addr = Nddisco.address nd v in
    Alcotest.(check int) "address ends at v" v
      addr.Disco_core.Address.route.(Disco_core.Address.hops addr);
    let decoded =
      Disco_core.Address.decode g ~landmark:addr.Disco_core.Address.landmark
        ~labels:addr.Disco_core.Address.labels
        ~hops:(Disco_core.Address.hops addr)
    in
    Alcotest.(check (list int)) "labels decode to route" (Array.to_list addr.Disco_core.Address.route) decoded
  done

let test_routes_are_paths () =
  let g, nd = build 5 in
  let n = Graph.n g in
  for s = 0 to min 12 (n - 1) do
    for t = 0 to min 12 (n - 1) do
      if s <> t then begin
        Helpers.check_path g ~src:s ~dst:t (Nddisco.route_first nd ~src:s ~dst:t);
        Helpers.check_path g ~src:s ~dst:t (Nddisco.route_later nd ~src:s ~dst:t)
      end
    done
  done

(* Theorem precondition: every node has a landmark in its vicinity. *)
let landmark_in_every_vicinity (nd : Nddisco.t) =
  let n = Graph.n nd.Nddisco.graph in
  let ok = ref true in
  for v = 0 to n - 1 do
    if not nd.Nddisco.landmarks.Landmarks.is_landmark.(v) then begin
      let vw = Vicinity.view nd.Nddisco.vicinity v in
      if
        not
          (Array.exists
             (fun w -> nd.Nddisco.landmarks.Landmarks.is_landmark.(w))
             vw.Vicinity.members)
      then ok := false
    end
  done;
  !ok

let stretch_bound_holds g route_fn bound =
  let n = Graph.n g in
  let ws = Dijkstra.make_workspace g in
  let worst = ref 0.0 in
  for s = 0 to min 15 (n - 1) do
    let sp = Dijkstra.sssp ~ws g s in
    for t = 0 to n - 1 do
      if t <> s && sp.Dijkstra.dist.(t) < infinity && sp.Dijkstra.dist.(t) > 0.0 then begin
        let r = route_fn ~src:s ~dst:t in
        let stretch = Helpers.path_len g r /. sp.Dijkstra.dist.(t) in
        if stretch > !worst then worst := stretch
      end
    done
  done;
  !worst <= bound +. 1e-9

let prop_first_packet_stretch_5 =
  Helpers.qtest "first packet stretch <= 5 (given landmark in vicinity)" ~count:15
    Helpers.seed_arb (fun seed ->
      let g, nd = build seed in
      QCheck.assume (landmark_in_every_vicinity nd);
      stretch_bound_holds g
        (fun ~src ~dst -> Nddisco.route_first ~heuristic:Shortcut.No_shortcut nd ~src ~dst)
        5.0)

let prop_later_packet_stretch_3 =
  Helpers.qtest "later packets stretch <= 3 (given landmark in vicinity)" ~count:15
    Helpers.seed_arb (fun seed ->
      let g, nd = build seed in
      QCheck.assume (landmark_in_every_vicinity nd);
      stretch_bound_holds g
        (fun ~src ~dst -> Nddisco.route_later ~heuristic:Shortcut.No_shortcut nd ~src ~dst)
        3.0)

let test_handshake_gives_shortest () =
  let g, nd = build 7 in
  let n = Graph.n g in
  let ws = Dijkstra.make_workspace g in
  for t = 0 to min 10 (n - 1) do
    let vw = Vicinity.view nd.Nddisco.vicinity t in
    Array.iter
      (fun s ->
        (* s in V(t): later packets follow the exact shortest path. *)
        let r = Nddisco.route_later nd ~src:s ~dst:t in
        let sp = Dijkstra.sssp ~ws g s in
        Alcotest.(check bool)
          (Printf.sprintf "s=%d t=%d shortest" s t)
          true
          (Float.abs (Helpers.path_len g r -. sp.Dijkstra.dist.(t)) < 1e-9))
      vw.Vicinity.members
  done

let test_landmark_destination_shortest () =
  let g, nd = build 9 in
  let lm = nd.Nddisco.landmarks.Landmarks.ids.(0) in
  let ws = Dijkstra.make_workspace g in
  for s = 0 to min 10 (Graph.n g - 1) do
    if s <> lm then begin
      let r = Nddisco.route_first nd ~src:s ~dst:lm in
      let sp = Dijkstra.sssp ~ws g s in
      Alcotest.(check bool) "landmark route shortest" true
        (Float.abs (Helpers.path_len g r -. sp.Dijkstra.dist.(lm)) < 1e-9)
    end
  done

let test_knows () =
  let _, nd = build 11 in
  let lm = nd.Nddisco.landmarks.Landmarks.ids.(0) in
  Alcotest.(check bool) "knows landmark" true (Nddisco.knows nd 0 lm <> None);
  Alcotest.(check bool) "knows self" true (Nddisco.knows nd 3 3 = Some [ 3 ])

let test_state_entries () =
  let g, nd = build 13 in
  let d = Nddisco.state_entries ~resolution_entries:7 nd 0 in
  Alcotest.(check int) "vicinity k" (Vicinity.k nd.Nddisco.vicinity) d.Nddisco.vicinity_entries;
  Alcotest.(check int) "landmarks" (Landmarks.count nd.Nddisco.landmarks) d.Nddisco.landmark_entries;
  Alcotest.(check int) "resolution" 7 d.Nddisco.resolution_entries;
  Alcotest.(check bool) "labels <= degree" true (d.Nddisco.label_mappings <= Graph.degree g 0);
  Alcotest.(check int) "total sums"
    (d.Nddisco.vicinity_entries + d.Nddisco.landmark_entries + d.Nddisco.label_mappings + 7)
    (Nddisco.total_entries d)

let test_custom_landmarks () =
  let g = Helpers.random_graph 15 in
  let nd = Nddisco.build ~landmark_ids:[| 0; 1 |] ~rng:(Rng.create 1) g in
  Alcotest.(check int) "two landmarks" 2 (Landmarks.count nd.Nddisco.landmarks)

let test_trivial_route () =
  let _, nd = build 17 in
  Alcotest.(check (list int)) "self route" [ 4 ] (Nddisco.route_first nd ~src:4 ~dst:4)

let suite =
  [
    Alcotest.test_case "addresses decode" `Quick test_addresses_decode;
    Alcotest.test_case "routes are paths" `Quick test_routes_are_paths;
    prop_first_packet_stretch_5;
    prop_later_packet_stretch_3;
    Alcotest.test_case "handshake gives shortest" `Quick test_handshake_gives_shortest;
    Alcotest.test_case "landmark destination shortest" `Quick test_landmark_destination_shortest;
    Alcotest.test_case "knows" `Quick test_knows;
    Alcotest.test_case "state entries" `Quick test_state_entries;
    Alcotest.test_case "custom landmarks" `Quick test_custom_landmarks;
    Alcotest.test_case "trivial route" `Quick test_trivial_route;
  ]
