module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Address = Disco_core.Address
module Landmarks = Disco_core.Landmarks
module Disco = Disco_core.Disco

(* [make] then [decode]: the node path the packed labels replay. *)
let decoded g route =
  let addr = Address.make g ~route in
  Address.decode g ~landmark:(List.hd route) ~labels:addr.Address.labels
    ~hops:(Address.hops addr)

let test_make_and_fields () =
  let g = Gen.ring ~n:6 in
  let addr = Address.make g ~route:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "landmark" 0 addr.Address.landmark;
  Alcotest.(check int) "hops" 3 (Address.hops addr);
  Alcotest.(check int) "destination" 3 (Address.destination addr);
  (* Ring: degree 2 everywhere, 1 bit per hop. *)
  Alcotest.(check int) "label bits" 3 addr.Address.label_bits;
  Alcotest.(check int) "route bytes" 1 (Address.route_byte_size addr);
  Alcotest.(check int) "byte size ipv4" 5 (Address.byte_size ~name_bytes:4 addr)

let test_trivial_route () =
  let g = Gen.ring ~n:4 in
  let addr = Address.make g ~route:[ 2 ] in
  Alcotest.(check int) "no hops" 0 (Address.hops addr);
  Alcotest.(check int) "no bits" 0 addr.Address.label_bits;
  Alcotest.(check int) "route bytes" 0 (Address.route_byte_size addr)

let test_non_path_rejected () =
  let g = Gen.ring ~n:6 in
  Alcotest.check_raises "not a path" (Invalid_argument "Address.make: route is not a path")
    (fun () -> ignore (Address.make g ~route:[ 0; 3 ]))

let test_empty_rejected () =
  let g = Gen.ring ~n:4 in
  Alcotest.check_raises "empty" (Invalid_argument "Address.make: empty route") (fun () ->
      ignore (Address.make g ~route:[]))

let test_decode_roundtrip_ring () =
  let g = Gen.ring ~n:8 in
  let route = [ 1; 2; 3; 4; 5 ] in
  let addr = Address.make g ~route in
  let decoded =
    Address.decode g ~landmark:addr.Address.landmark ~labels:addr.Address.labels
      ~hops:(Address.hops addr)
  in
  Alcotest.(check (list int)) "roundtrip" route decoded

let prop_roundtrip_random =
  Helpers.qtest "encode/decode roundtrip on random shortest paths" ~count:40
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_graph seed in
      let n = Graph.n g in
      let src = seed mod n and dst = (seed * 31) mod n in
      let sp = Dijkstra.sssp g src in
      if sp.Dijkstra.dist.(dst) = infinity then true
      else begin
        let route =
          Dijkstra.path_of_parents ~parent:(fun v -> sp.Dijkstra.parent.(v)) ~src ~dst
        in
        let addr = Address.make g ~route in
        Address.decode g ~landmark:src ~labels:addr.Address.labels
          ~hops:(Address.hops addr)
        = route
      end)

(* Disco's first- and later-packet routes on random geometric graphs
   survive the label codec. *)
let prop_roundtrip_disco_routes =
  Helpers.qtest "route labels round-trip through the bit codec" ~count:30
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let d = Disco.build ~rng:(Disco_util.Rng.create seed) g in
      let n = Graph.n g in
      let src = seed mod n and dst = ((seed * 7) + 1) mod n in
      let first = Disco.route_first d ~src ~dst
      and later = Disco.route_later d ~src ~dst in
      decoded g first = first && decoded g later = later)

let prop_size_bound =
  Helpers.qtest "bits <= sum of ceil(log2 degree)" ~count:30 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_graph seed in
      let src = seed mod Graph.n g in
      let sp = Dijkstra.sssp g src in
      let ok = ref true in
      for dst = 0 to Graph.n g - 1 do
        if sp.Dijkstra.dist.(dst) < infinity then begin
          let route =
            Dijkstra.path_of_parents ~parent:(fun v -> sp.Dijkstra.parent.(v)) ~src ~dst
          in
          let addr = Address.make g ~route in
          let bound =
            List.fold_left ( + ) 0
              (List.filteri
                 (fun i _ -> i < List.length route - 1)
                 (List.map (fun u -> Disco_util.Bits.width_for (Graph.degree g u)) route))
          in
          if addr.Address.label_bits <> bound then ok := false
        end
      done;
      !ok)

let test_ring_worst_case () =
  (* §4.2: in a ring the explicit route is as long as the network — the
     worst case for address size. 1 bit per hop on a degree-2 cycle. *)
  let n = 64 in
  let g = Gen.ring ~n in
  let lms = Landmarks.of_ids g [| 0 |] in
  let route = Landmarks.address_route lms (n / 2) in
  let addr = Address.make g ~route in
  Alcotest.(check int) "n/2 bits" (n / 2) addr.Address.label_bits;
  Alcotest.(check int) "bytes" (n / 2 / 8) (Address.route_byte_size addr)

let suite =
  [
    Alcotest.test_case "make and fields" `Quick test_make_and_fields;
    Alcotest.test_case "trivial route" `Quick test_trivial_route;
    Alcotest.test_case "non-path rejected" `Quick test_non_path_rejected;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    Alcotest.test_case "decode roundtrip ring" `Quick test_decode_roundtrip_ring;
    prop_roundtrip_random;
    prop_roundtrip_disco_routes;
    prop_size_bound;
    Alcotest.test_case "ring worst case" `Quick test_ring_worst_case;
  ]
