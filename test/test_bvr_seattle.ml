module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Bvr = Disco_baselines.Bvr
module Seattle = Disco_baselines.Seattle
module Name = Disco_core.Name

(* --- BVR ----------------------------------------------------------------- *)

let bvr_build ?(weighted = true) seed =
  let g =
    if weighted then Helpers.random_weighted_graph seed
    else Helpers.random_graph ~n_min:40 ~n_max:80 seed
  in
  (g, Bvr.build ~rng:(Rng.create seed) g)

let test_bvr_coordinates () =
  let g, bvr = bvr_build 3 in
  let r = Bvr.beacon_count bvr in
  Alcotest.(check bool) "some beacons" true (r >= 1);
  for v = 0 to Graph.n g - 1 do
    let c = Bvr.coordinate bvr v in
    Alcotest.(check int) "coordinate dimension" r (Array.length c);
    Array.iter (fun d -> Alcotest.(check bool) "finite" true (d < infinity)) c
  done

let test_bvr_coordinates_are_distances () =
  let g, bvr = bvr_build 5 in
  (* Coordinate component 0 must equal the true distance to some beacon:
     verify via a node that IS a beacon (distance 0 to itself). *)
  let zeroes = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let c = Bvr.coordinate bvr v in
    if Array.exists (fun d -> d = 0.0) c then incr zeroes
  done;
  Alcotest.(check int) "exactly the beacons have a zero component"
    (Bvr.beacon_count bvr) !zeroes

let bvr_route g bvr ~src ~dst =
  Helpers.walk g ~forward:(Bvr.forward bvr) ~src (Bvr.packet_header bvr ~src ~dst)

let test_bvr_routes_valid () =
  let g, bvr = bvr_build 7 in
  let n = Graph.n g in
  let delivered = ref 0 and total = ref 0 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then begin
        incr total;
        match bvr_route g bvr ~src:s ~dst:t with
        | Some p ->
            incr delivered;
            Helpers.check_path g ~src:s ~dst:t p
        | None -> ()
      end
    done
  done;
  (* Greedy + fallback delivers the vast majority (BVR floods the rest). *)
  Alcotest.(check bool)
    (Printf.sprintf "delivery %d/%d" !delivered !total)
    true
    (float_of_int !delivered /. float_of_int !total > 0.9)

let test_bvr_state_small () =
  (* Sub-linear state needs a graph big enough for 2*sqrt(n log n) << n. *)
  let rng = Rng.create 9 in
  let g = Disco_graph.Gen.gnm ~rng ~n:512 ~m:2048 in
  let bvr = Bvr.build ~rng g in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check bool) "state << n" true (Bvr.state_entries bvr v < Graph.n g / 2)
  done

let test_bvr_self_route () =
  let g, bvr = bvr_build 11 in
  Alcotest.(check bool) "self" true (bvr_route g bvr ~src:4 ~dst:4 = Some [ 4 ])

(* --- SEATTLE -------------------------------------------------------------- *)

let seattle_build seed =
  let g = Helpers.random_weighted_graph seed in
  let names = Name.default_array (Graph.n g) in
  (g, Seattle.build ~trees:(Helpers.unpinned_trees g) ~names)

(* SEATTLE guarantees delivery: a dropped walk fails the test. *)
let seattle_walk g st ~src header =
  match Helpers.walk g ~forward:(Seattle.forward st) ~src header with
  | Some p -> p
  | None -> Alcotest.failf "seattle dropped a packet from %d" src

let route_first g st ~src ~dst = seattle_walk g st ~src (Seattle.first_header st ~src ~dst)
let route_later g st ~src ~dst = seattle_walk g st ~src (Seattle.later_header st ~src ~dst)

let test_seattle_later_is_shortest () =
  let g, st = seattle_build 13 in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  for s = 0 to min 12 (n - 1) do
    for t = 0 to min 12 (n - 1) do
      if s <> t then begin
        let p = route_later g st ~src:s ~dst:t in
        Helpers.check_path g ~src:s ~dst:t p;
        Alcotest.(check bool) "shortest" true
          (Float.abs (Helpers.path_len g p -. oracle.(s).(t)) < 1e-9)
      end
    done
  done

let test_seattle_first_via_resolver () =
  let g, st = seattle_build 15 in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  for s = 0 to min 12 (n - 1) do
    for t = 0 to min 12 (n - 1) do
      if s <> t then begin
        let p = route_first g st ~src:s ~dst:t in
        Helpers.check_path g ~src:s ~dst:t p;
        let r = Seattle.resolver_of st t in
        let expected =
          if r = s || r = t then oracle.(s).(t) else oracle.(s).(r) +. oracle.(r).(t)
        in
        Alcotest.(check bool) "detour length" true
          (Float.abs (Helpers.path_len g p -. expected) < 1e-9)
      end
    done
  done

let test_seattle_state_linear () =
  let g, st = seattle_build 17 in
  let n = Graph.n g in
  let total_directory = ref 0 in
  for v = 0 to n - 1 do
    let e = Seattle.state_entries st v in
    Alcotest.(check bool) "at least n-1" true (e >= n - 1);
    total_directory := !total_directory + (e - (n - 1))
  done;
  Alcotest.(check int) "directory covers all names" n !total_directory

let test_seattle_first_stretch_unbounded_somewhere () =
  (* The resolver detour must exceed stretch 3 for some pair in a
     latency-weighted graph — SEATTLE's Fig 1 weakness. *)
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed < 20 do
    let g, st = seattle_build !seed in
    let oracle = Helpers.floyd g in
    let n = Graph.n g in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        if s <> t && oracle.(s).(t) > 0.0 then begin
          let p = route_first g st ~src:s ~dst:t in
          if Helpers.path_len g p /. oracle.(s).(t) > 3.0 then found := true
        end
      done
    done;
    incr seed
  done;
  Alcotest.(check bool) "stretch > 3 exists" true !found

let suite =
  [
    Alcotest.test_case "bvr coordinates" `Quick test_bvr_coordinates;
    Alcotest.test_case "bvr beacon zero components" `Quick test_bvr_coordinates_are_distances;
    Alcotest.test_case "bvr routes valid, high delivery" `Quick test_bvr_routes_valid;
    Alcotest.test_case "bvr state small" `Quick test_bvr_state_small;
    Alcotest.test_case "bvr self route" `Quick test_bvr_self_route;
    Alcotest.test_case "seattle later = shortest" `Quick test_seattle_later_is_shortest;
    Alcotest.test_case "seattle first via resolver" `Quick test_seattle_first_via_resolver;
    Alcotest.test_case "seattle state linear" `Quick test_seattle_state_linear;
    Alcotest.test_case "seattle first stretch unbounded" `Quick test_seattle_first_stretch_unbounded_somewhere;
  ]
