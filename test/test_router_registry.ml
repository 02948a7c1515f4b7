(* The ROUTER contract, enforced on every registered scheme at once: valid
   paths (start at src, end at dst, hop along edges), stretch >= 1 against
   the Dijkstra oracle, non-negative per-node state, and a compiled face
   that allocates nothing per hop at run time. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module Routers = Disco_experiments.Routers
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module D = Disco_core.Dataplane

let testbed =
  lazy (Testbed.make ~seed:7 Gen.Geometric ~n:96)

let expected_names =
  [ "pathvector"; "seattle"; "bvr"; "vrr"; "s4"; "nddisco"; "disco"; "tz" ]

let test_registry_contents () =
  let names = Routers.names () in
  Alcotest.(check (list string)) "all built-in schemes registered" expected_names names;
  List.iter
    (fun name ->
      match Routers.find name with
      | Some p -> Alcotest.(check string) "find returns the right module" name (Protocol.name_of p)
      | None -> Alcotest.failf "Routers.find %S returned None" name)
    names;
  Alcotest.(check bool) "find on a junk name misses" true (Routers.find "nonesuch" = None)

let test_duplicate_rejected () =
  let disco = Routers.find_exn "disco" in
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Protocol.register: duplicate router \"disco\"")
    (fun () -> Protocol.register disco)

(* The zero-alloc contract at run time: every sampled flow's first and
   later header, pre-encoded once, is decoded and routed through the
   compiled face.  After a warm-up pass, [Gc.minor_words] around
   [decode_into] + [fast_walk] must stay under a 64-word slack for the
   measurement scaffolding itself. *)
let check_fast_path_alloc_free (type a) (module R : Protocol.ROUTER with type t = a)
    (router : a) g flows =
  let plan = R.compile router in
  let tel = Telemetry.create () in
  let encode src h =
    let buf = Bytes.create (D.encoded_size g ~src h) in
    ignore (D.encode_header g ~src h buf ~pos:0 : int);
    (src, buf)
  in
  let packets =
    List.concat_map
      (fun (src, dst) ->
        plan.D.fprime ~src ~dst;
        [
          encode src (R.first_header router ~tel ~src ~dst);
          encode src (R.later_header router ~tel ~src ~dst);
        ])
      flows
    |> Array.of_list
  in
  let ttl = R.ttl_factor * Graph.n g in
  let pkt = D.packet_create g in
  let trail = Array.make (ttl + 1) (-1) in
  let route_all () =
    for i = 0 to Array.length packets - 1 do
      let src, buf = packets.(i) in
      D.decode_into g pkt buf ~pos:0 ~src;
      D.fast_walk g ~step:plan.D.fstep pkt ~src ~ttl ~trail
    done
  in
  route_all ();
  Gc.full_major ();
  let before = Gc.minor_words () in
  route_all ();
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "%s: fast path allocated %.0f words over %d packets" R.name
      words (Array.length packets)

(* One pass over sampled pairs per router, through both faces of the
   contract: walked data-plane paths and oracle routes are all valid and
   no faster than the shortest path; then the same pairs through the
   compiled face. *)
let check_router packed () =
  let module R = (val packed : Protocol.ROUTER) in
  let module Walk = Disco_experiments.Walk in
  let tb = Lazy.force testbed in
  let g = tb.Testbed.graph in
  let n = Graph.n g in
  let router = R.build tb in
  let tel = Telemetry.create () in
  for v = 0 to n - 1 do
    if R.state_entries router v < 0 then
      Alcotest.failf "%s: negative state at node %d" R.name v
  done;
  let rng = Rng.create 123 in
  let ws = Dijkstra.make_workspace g in
  let routed = ref 0 in
  let flows = ref [] in
  for _ = 1 to 40 do
    let src = Rng.int rng n in
    let sp = Dijkstra.sssp ~ws g src in
    for _ = 1 to 3 do
      let dst = Rng.int rng n in
      let dist = sp.Dijkstra.dist.(dst) in
      if src <> dst && dist > 0.0 && dist < infinity then begin
        flows := (src, dst) :: !flows;
        List.iter
          (fun (label, route) ->
            match route router ~tel ~src ~dst with
            | None -> () (* a failure is legal (BVR local minima); counted via tel *)
            | Some path ->
                incr routed;
                Helpers.check_path g ~src ~dst path;
                let stretch = Helpers.path_len g path /. dist in
                if stretch < 1.0 -. 1e-9 then
                  Alcotest.failf "%s %s: stretch %.4f < 1 for %d->%d" R.name label
                    stretch src dst)
          [
            ("walk-first", fun rt -> Walk.first (module R) rt ~graph:g);
            ("walk-later", fun rt -> Walk.later (module R) rt ~graph:g);
            ("oracle-first", R.oracle_first);
            ("oracle-later", R.oracle_later);
          ]
      end
    done
  done;
  if !routed = 0 then Alcotest.failf "%s: no pair routed at all" R.name;
  (* The walker really ran: the per-hop counters moved. *)
  if tel.Telemetry.packets_walked = 0 || tel.Telemetry.hops_forwarded = 0 then
    Alcotest.failf "%s: data-plane counters never moved" R.name;
  check_fast_path_alloc_free (module R) router g (List.rev !flows)

let suite =
  [
    Alcotest.test_case "registry contents" `Quick test_registry_contents;
    Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
  ]
  @ List.map
      (fun p ->
        Alcotest.test_case
          (Printf.sprintf "contract: %s" (Protocol.name_of p))
          `Quick (check_router p))
      (Routers.all ())
