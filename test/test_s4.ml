module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module S4 = Disco_baselines.S4
module Core = Disco_core

(* S4 runs on NDDisco's landmark set and trees and on the resolution
   database over them, as on a testbed. *)
let nddisco ?landmark_ids seed g =
  Core.Nddisco.build ?landmark_ids ~rng:(Rng.create seed) g

let s4_of nd = S4.of_nddisco nd (Core.Resolution.build nd)

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, s4_of (nddisco seed g))

let test_cluster_definition () =
  (* Brute-force check: w in cluster(v) iff d(v,w) < d(w, l_w). *)
  let g, s4 = build 3 in
  let n = Graph.n g in
  let oracle = Helpers.floyd g in
  for v = 0 to n - 1 do
    for w = 0 to n - 1 do
      if v <> w then begin
        let expected = oracle.(v).(w) < S4.radius s4 w in
        Alcotest.(check bool)
          (Printf.sprintf "cluster v=%d w=%d" v w)
          expected
          (S4.in_cluster s4 ~node:v ~target:w)
      end
    done
  done

let test_cluster_sizes_match_membership () =
  let g, s4 = build 5 in
  let n = Graph.n g in
  let sizes = S4.cluster_sizes s4 in
  for v = 0 to n - 1 do
    let count = ref 0 in
    for w = 0 to n - 1 do
      if v <> w && S4.in_cluster s4 ~node:v ~target:w then incr count
    done;
    Alcotest.(check int) (Printf.sprintf "size at %d" v) !count sizes.(v)
  done

let test_star_of_stars_worst_case () =
  (* Footnote 6: with random landmarks on the star-of-stars, the root's
     cluster is Theta(n) while Disco's vicinity state stays fixed at k. *)
  let branch = 16 in
  let g = Gen.star_of_stars ~branch in
  let n = Graph.n g in
  (* Pick one grandchild as the only landmark: every other grandchild has
     d(g, l_g) = 8 > 3 = d(root, g), so the root clusters ~all of them. *)
  let grandchild = 1 + branch in
  let nd = nddisco ~landmark_ids:[| grandchild |] 1 g in
  let sizes = S4.cluster_sizes (s4_of nd) in
  Alcotest.(check bool)
    (Printf.sprintf "root cluster %d ~ n=%d" sizes.(0) n)
    true
    (sizes.(0) > (2 * n) / 3);
  (* Disco on the same topology and landmark set: state bounded by k. *)
  let k = Core.Vicinity.k nd.Core.Nddisco.vicinity in
  let det = Core.Nddisco.state_entries nd 0 in
  Alcotest.(check int) "Disco root vicinity fixed at k" k det.Core.Nddisco.vicinity_entries;
  Alcotest.(check bool) "Disco root state below S4's" true
    (det.Core.Nddisco.vicinity_entries < sizes.(0))

let test_routes_are_paths () =
  let g, s4 = build 7 in
  let n = Graph.n g in
  for s = 0 to min 12 (n - 1) do
    for t = 0 to min 12 (n - 1) do
      if s <> t then begin
        Helpers.check_path g ~src:s ~dst:t (S4.route_first s4 ~src:s ~dst:t);
        Helpers.check_path g ~src:s ~dst:t (S4.route_later s4 ~src:s ~dst:t)
      end
    done
  done

let test_later_stretch_3 () =
  (* TZ: routing via l_t with cluster shortcutting has stretch <= 3,
     unconditionally (unlike Disco's w.h.p. bound). *)
  let g, s4 = build 9 in
  let n = Graph.n g in
  let ws = Dijkstra.make_workspace g in
  for s = 0 to min 20 (n - 1) do
    let sp = Dijkstra.sssp ~ws g s in
    for t = 0 to n - 1 do
      if s <> t && sp.Dijkstra.dist.(t) > 0.0 then begin
        let r = S4.route_later s4 ~src:s ~dst:t in
        let stretch = Helpers.path_len g r /. sp.Dijkstra.dist.(t) in
        if stretch > 3.0 +. 1e-9 then
          Alcotest.failf "stretch %.3f > 3 for %d->%d" stretch s t
      end
    done
  done

let test_first_packet_can_exceed_3 () =
  (* The resolution detour breaks the bound on at least some pair in a
     latency-weighted graph (this is Fig 3's S4-First tail). Scan seeds:
     at least one must exhibit stretch > 3. *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed < 30 do
    let g, s4 = build !seed in
    let n = Graph.n g in
    let ws = Dijkstra.make_workspace g in
    for s = 0 to n - 1 do
      let sp = Dijkstra.sssp ~ws g s in
      for t = 0 to n - 1 do
        if s <> t && sp.Dijkstra.dist.(t) > 0.0 then begin
          let r = S4.route_first s4 ~src:s ~dst:t in
          if Helpers.path_len g r /. sp.Dijkstra.dist.(t) > 3.0 then found := true
        end
      done
    done;
    incr seed
  done;
  Alcotest.(check bool) "first-packet stretch exceeds 3 somewhere" true !found

let test_cluster_path_is_shortest () =
  let g, s4 = build 11 in
  let n = Graph.n g in
  let oracle = Helpers.floyd g in
  for s = 0 to min 10 (n - 1) do
    for t = 0 to min 10 (n - 1) do
      if s <> t && S4.in_cluster s4 ~node:s ~target:t then begin
        match S4.knows s4 s t with
        | None -> Alcotest.fail "in_cluster but no path"
        | Some p ->
            Helpers.check_path g ~src:s ~dst:t p;
            Alcotest.(check bool) "path is shortest" true
              (Float.abs (Helpers.path_len g p -. oracle.(s).(t)) < 1e-9)
      end
    done
  done

let test_state_entries () =
  let g = Helpers.random_weighted_graph 13 in
  let nd = nddisco 13 g in
  let s4 = s4_of nd in
  let sizes = S4.cluster_sizes s4 in
  let loads = S4.resolution_loads s4 in
  Alcotest.(check int) "resolution loads sum to n" (Graph.n g)
    (Array.fold_left ( + ) 0 loads);
  for v = 0 to Graph.n g - 1 do
    let e = S4.state_entries s4 ~cluster_sizes:sizes ~resolution_loads:loads v in
    Alcotest.(check bool) "at least cluster + landmarks" true
      (e >= sizes.(v) + Core.Landmarks.count nd.Core.Nddisco.landmarks)
  done

let suite =
  [
    Alcotest.test_case "cluster definition" `Quick test_cluster_definition;
    Alcotest.test_case "cluster sizes" `Quick test_cluster_sizes_match_membership;
    Alcotest.test_case "star-of-stars worst case (footnote 6)" `Quick test_star_of_stars_worst_case;
    Alcotest.test_case "routes are paths" `Quick test_routes_are_paths;
    Alcotest.test_case "later packets stretch <= 3" `Quick test_later_stretch_3;
    Alcotest.test_case "first packet can exceed 3" `Quick test_first_packet_can_exceed_3;
    Alcotest.test_case "cluster paths shortest" `Quick test_cluster_path_is_shortest;
    Alcotest.test_case "state entries" `Quick test_state_entries;
  ]
