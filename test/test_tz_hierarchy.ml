module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Tz = Disco_baselines.Tz_hierarchy

let build ?(k = 2) seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Tz.build ~rng:(Rng.create seed) ~k ~trees:(Helpers.unpinned_trees g))

(* Length of the route the data plane takes; infinite when it drops. *)
let route_length g tz ~src ~dst =
  match Helpers.walk g ~forward:(Tz.forward tz) ~src (Tz.packet_header tz ~src ~dst) with
  | Some p -> Helpers.path_len g p
  | None -> infinity

let test_levels_nested () =
  let g, tz = build ~k:3 5 in
  let sizes = Tz.level_sizes tz in
  Alcotest.(check int) "A_0 is everyone" (Graph.n g) sizes.(0);
  for i = 0 to Array.length sizes - 2 do
    Alcotest.(check bool) "nested" true (sizes.(i) >= sizes.(i + 1))
  done;
  Alcotest.(check bool) "top level nonempty" true (sizes.(Array.length sizes - 1) >= 1)

let test_k1_is_shortest_path () =
  (* One level: every node's bunch is the whole graph, routes are exact. *)
  let g, tz = build ~k:1 7 in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  for s = 0 to min 10 (n - 1) do
    for t = 0 to min 10 (n - 1) do
      if s <> t then
        Alcotest.(check bool)
          (Printf.sprintf "%d-%d exact" s t)
          true
          (Float.abs (route_length g tz ~src:s ~dst:t -. oracle.(s).(t)) < 1e-9)
    done
  done;
  for v = 0 to n - 1 do
    Alcotest.(check int) "full state" (n - 1 + 1) (Tz.state tz v)
  done

let stretch_ok k seed =
  let g = Helpers.random_weighted_graph seed in
  let tz = Tz.build ~rng:(Rng.create seed) ~k ~trees:(Helpers.unpinned_trees g) in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  let ok = ref true in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && oracle.(s).(t) < infinity then begin
        let r = route_length g tz ~src:s ~dst:t in
        if r < oracle.(s).(t) -. 1e-9 then ok := false (* impossible: shorter than shortest *)
        ;
        if r > (Tz.stretch_bound tz *. oracle.(s).(t)) +. 1e-9 then ok := false
      end
    done
  done;
  !ok

let prop_stretch_k2 =
  Helpers.qtest "k=2 stretch <= 3" ~count:15 Helpers.seed_arb (fun seed -> stretch_ok 2 seed)

let prop_stretch_k3 =
  Helpers.qtest "k=3 stretch <= 5" ~count:15 Helpers.seed_arb (fun seed -> stretch_ok 3 seed)

let prop_stretch_k4 =
  Helpers.qtest "k=4 stretch <= 7" ~count:10 Helpers.seed_arb (fun seed -> stretch_ok 4 seed)

(* The walk climbs to the header's waypoint w and descends from it, both
   along shortest paths, and delivers only at the end of the descent: its
   length is exactly d(s, w) + d(w, t). A packet that delivered early,
   riding through its destination on the way up to w, falls short. *)
let via_waypoint_ok seed =
  let g = Helpers.random_weighted_graph seed in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  (* One tree memo for every k, as the tradeoff figure shares it. *)
  let trees = Helpers.unpinned_trees g in
  List.for_all
    (fun k ->
      let tz = Tz.build ~rng:(Rng.create seed) ~k ~trees in
      let ok = ref true in
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if s <> t && oracle.(s).(t) < infinity then begin
            let w = (Tz.packet_header tz ~src:s ~dst:t).Disco_core.Dataplane.waypoint in
            if
              w < 0
              || Float.abs
                   (route_length g tz ~src:s ~dst:t -. (oracle.(s).(w) +. oracle.(w).(t)))
                 > 1e-9
            then ok := false
          end
        done
      done;
      !ok)
    [ 2; 3; 4 ]

let prop_walk_via_waypoint =
  Helpers.qtest "walk length = d(s,w) + d(w,t)" ~count:10 Helpers.seed_arb via_waypoint_ok

let test_state_shrinks_with_k () =
  (* On a larger graph, mean state must drop as k grows (the tradeoff). *)
  let rng = Rng.create 11 in
  let g = Disco_graph.Gen.gnm ~rng ~n:512 ~m:2048 in
  let mean_state k =
    let tz = Tz.build ~rng:(Rng.create 13) ~k ~trees:(Helpers.unpinned_trees g) in
    let total = ref 0 in
    for v = 0 to Graph.n g - 1 do
      total := !total + Tz.state tz v
    done;
    float_of_int !total /. 512.0
  in
  let s2 = mean_state 2 and s3 = mean_state 3 in
  Alcotest.(check bool)
    (Printf.sprintf "state(k=3)=%.0f < state(k=2)=%.0f" s3 s2)
    true (s3 < s2)

let test_bunch_definition () =
  (* w in B(v) iff d(v,w) < d(v, A_{i(w)+1}) for w's level — spot-check
     with the oracle on a small graph. *)
  let g, tz = build ~k:2 15 in
  let oracle = Helpers.floyd g in
  let n = Graph.n g in
  for v = 0 to min 14 (n - 1) do
    for w = 0 to min 14 (n - 1) do
      if v <> w && Tz.in_bunch tz ~node:v ~target:w then
        (* Being in the bunch means the stored distance is the true one;
           verified indirectly: a walk via w is >= true shortest and never
           undercuts it (checked above). *)
        Alcotest.(check bool) "bunch dist sanity" true (oracle.(v).(w) < infinity)
    done
  done

let suite =
  [
    Alcotest.test_case "levels nested" `Quick test_levels_nested;
    Alcotest.test_case "k=1 is shortest path" `Quick test_k1_is_shortest_path;
    prop_stretch_k2;
    prop_stretch_k3;
    prop_stretch_k4;
    prop_walk_via_waypoint;
    Alcotest.test_case "state shrinks with k" `Quick test_state_shrinks_with_k;
    Alcotest.test_case "bunch definition" `Quick test_bunch_definition;
  ]
