module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Vrr = Disco_baselines.Vrr
module Hash_space = Disco_hash.Hash_space
module Name = Disco_core.Name

let build ?(seed = 3) ?(n = 64) () =
  let g = Helpers.random_graph ~n_min:n ~n_max:(n + 1) seed in
  (g, Vrr.build ~rng:(Rng.create seed) g)

let test_vset_size () =
  let g, v = build () in
  for x = 0 to Graph.n g - 1 do
    let vs = Vrr.vset v x in
    Alcotest.(check bool)
      (Printf.sprintf "vset size %d" (Array.length vs))
      true
      (Array.length vs >= 2 && Array.length vs <= 4);
    Array.iter (fun y -> Alcotest.(check bool) "not self" true (y <> x)) vs
  done

let test_vset_is_ring_neighborhood () =
  let g, v = build ~seed:5 () in
  let n = Graph.n g in
  let vids = Array.init n (fun i -> Hash_space.of_name (Name.default i)) in
  (* Sort all nodes on the virtual ring; each node's vset must be exactly
     its 2 successors and 2 predecessors. *)
  let ring = Array.init n Fun.id in
  Array.sort (fun a b -> Hash_space.compare_unsigned vids.(a) vids.(b)) ring;
  let index_of = Array.make n 0 in
  Array.iteri (fun i x -> index_of.(x) <- i) ring;
  for x = 0 to n - 1 do
    let i = index_of.(x) in
    let expect =
      List.sort_uniq compare
        [
          ring.((i + 1) mod n);
          ring.((i + 2) mod n);
          ring.((i + n - 1) mod n);
          ring.((i + n - 2) mod n);
        ]
    in
    let got = List.sort compare (Array.to_list (Vrr.vset v x)) in
    Alcotest.(check (list int)) (Printf.sprintf "vset of %d" x) expect got
  done

let test_ring_invariant () =
  let _, v = build ~seed:7 () in
  Alcotest.(check bool) "every final pair has a path" true (Vrr.ring_distance_ok v)

let route g v ~src ~dst =
  Helpers.walk ~ttl:(Vrr.ttl_factor * Graph.n g) g ~forward:(Vrr.forward v) ~src
    (Vrr.packet_header v ~src ~dst)

let test_routing_succeeds () =
  let g, v = build ~seed:9 ~n:80 () in
  let n = Graph.n g in
  let failures = ref 0 in
  for s = 0 to n - 1 do
    let t = (s + 17) mod n in
    if s <> t then begin
      match route g v ~src:s ~dst:t with
      | Some p -> Helpers.check_path g ~src:s ~dst:t p
      | None -> incr failures
    end
  done;
  Alcotest.(check int) "no failures" 0 !failures

let test_route_self () =
  let g, v = build ~seed:11 () in
  Alcotest.(check bool) "self" true (route g v ~src:5 ~dst:5 = Some [ 5 ])

let test_state_entries_floor () =
  let g, v = build ~seed:13 () in
  let st = Vrr.state_entries v in
  for x = 0 to Graph.n g - 1 do
    (* At minimum: pset + the entries of x's own vset paths. *)
    Alcotest.(check bool) "at least pset + own paths" true
      (st.(x) >= Graph.degree g x + Array.length (Vrr.vset v x))
  done

let test_no_fallbacks_on_connected_graph () =
  let _, v = build ~seed:15 ~n:128 () in
  Alcotest.(check int) "greedy setup never fell back" 0 (Vrr.setup_fallbacks v)

let test_join_order_affects_state () =
  (* Same graph, different join orders (different rng): converged totals
     differ — the paper's point about join-order dependence. *)
  let g = Helpers.random_graph ~n_min:64 ~n_max:65 17 in
  let total seed =
    Array.fold_left ( + ) 0 (Vrr.state_entries (Vrr.build ~rng:(Rng.create seed) g))
  in
  Alcotest.(check bool) "join order matters" true (total 1 <> total 2)

let test_state_unbalanced_on_power_law () =
  let rng = Rng.create 19 in
  let g = Gen.internet_as ~rng ~n:256 in
  let v = Vrr.build ~rng g in
  let st = Array.map float_of_int (Vrr.state_entries v) in
  let s = Disco_util.Stats.summarize st in
  Alcotest.(check bool)
    (Printf.sprintf "max %.0f >> mean %.1f" s.Disco_util.Stats.max s.Disco_util.Stats.mean)
    true
    (s.Disco_util.Stats.max > 4.0 *. s.Disco_util.Stats.mean)

let suite =
  [
    Alcotest.test_case "vset size" `Quick test_vset_size;
    Alcotest.test_case "vset = ring neighborhood" `Quick test_vset_is_ring_neighborhood;
    Alcotest.test_case "ring invariant" `Quick test_ring_invariant;
    Alcotest.test_case "routing succeeds" `Quick test_routing_succeeds;
    Alcotest.test_case "route to self" `Quick test_route_self;
    Alcotest.test_case "state entries floor" `Quick test_state_entries_floor;
    Alcotest.test_case "no setup fallbacks" `Quick test_no_fallbacks_on_connected_graph;
    Alcotest.test_case "join order affects state" `Quick test_join_order_affects_state;
    Alcotest.test_case "unbalanced state on power law" `Quick test_state_unbalanced_on_power_law;
  ]
