module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Nddisco = Disco_core.Nddisco
module Groups = Disco_core.Groups
module Overlay = Disco_core.Overlay

let build ?(n = 200) ?(fingers = 1) seed =
  let g = Helpers.random_graph ~n_min:n ~n_max:(n + 1) seed in
  let nd = Nddisco.build ~rng:(Rng.create seed) g in
  let groups = Groups.of_nddisco nd in
  (nd, groups, Overlay.build ~rng:(Rng.create (seed + 1)) ~fingers nd groups)

let test_neighbors_symmetric () =
  let _, _, ov = build 3 in
  for v = 0 to 199 do
    Array.iter
      (fun w ->
        Alcotest.(check bool)
          (Printf.sprintf "%d <-> %d" v w)
          true
          (Array.mem v (Overlay.neighbors ov w)))
      (Overlay.neighbors ov v)
  done

let test_neighbors_in_group () =
  let _, groups, ov = build 5 in
  for v = 0 to 199 do
    Array.iter
      (fun w ->
        Alcotest.(check bool) "overlay neighbor in same group" true
          (Groups.same_group groups v w))
      (Overlay.neighbors ov v)
  done

let test_full_coverage () =
  let _, _, ov = build 7 in
  let d = Overlay.disseminate ov in
  Alcotest.(check int) "everyone reached" d.Overlay.expected d.Overlay.reached;
  Alcotest.(check bool) "messages flowed" true (d.Overlay.messages > 0);
  Alcotest.(check bool) "hops positive" true (d.Overlay.mean_hops >= 1.0)

let test_more_fingers_fewer_hops () =
  let _, _, ov1 = build ~n:400 ~fingers:1 11 in
  let _, _, ov3 = build ~n:400 ~fingers:3 11 in
  let d1 = Overlay.disseminate ov1 in
  let d3 = Overlay.disseminate ov3 in
  Alcotest.(check bool)
    (Printf.sprintf "mean hops shrink (%.2f -> %.2f)" d1.Overlay.mean_hops d3.Overlay.mean_hops)
    true
    (d3.Overlay.mean_hops < d1.Overlay.mean_hops);
  Alcotest.(check bool) "more fingers, more messages" true
    (d3.Overlay.messages > d1.Overlay.messages)

let test_announcement_reaches_group () =
  (* Every node's announcement reaches every other member of its group. *)
  let _, _, ov = build 13 in
  let d = Overlay.disseminate ov in
  Alcotest.(check int) "every group member reached" d.Overlay.expected
    d.Overlay.reached

let test_mean_degree_small () =
  let _, _, ov = build ~fingers:1 17 in
  (* ~2 ring links + ~2 finger ends on average: constant, not O(n). *)
  Alcotest.(check bool)
    (Printf.sprintf "mean degree %.2f < 10" (Overlay.mean_degree ov))
    true
    (Overlay.mean_degree ov < 10.0)

let test_out_fingers_recorded () =
  let _, _, ov = build ~n:300 ~fingers:2 19 in
  let total = ref 0 in
  for v = 0 to 299 do
    let f = Overlay.out_fingers ov v in
    total := !total + Array.length f;
    Array.iter
      (fun w -> Alcotest.(check bool) "finger is neighbor" true (Array.mem w (Overlay.neighbors ov v)))
      f
  done;
  Alcotest.(check bool) "fingers chosen" true (!total > 0)

let suite =
  [
    Alcotest.test_case "neighbors symmetric" `Quick test_neighbors_symmetric;
    Alcotest.test_case "neighbors in group" `Quick test_neighbors_in_group;
    Alcotest.test_case "full coverage" `Quick test_full_coverage;
    Alcotest.test_case "more fingers, fewer hops" `Quick test_more_fingers_fewer_hops;
    Alcotest.test_case "announcement reaches group" `Quick test_announcement_reaches_group;
    Alcotest.test_case "constant mean degree" `Quick test_mean_degree_small;
    Alcotest.test_case "out fingers recorded" `Quick test_out_fingers_recorded;
  ]
