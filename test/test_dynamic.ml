(* The dynamic, event-driven protocol: cold-start convergence, join,
   fail-stop leave, landmark loss, and estimate-driven landmark churn —
   the "dynamic distributed setting" of the paper's title, including the
   continuous-churn behaviour §5 defers to future work. *)

module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Network = Disco_dynamic.Network
module D = Disco_core.Dataplane

let make ?(n = 64) ?(seed = 3) () =
  let rng = Rng.create seed in
  let graph = Disco_graph.Gen.gnm ~rng ~n ~m:(4 * n) in
  let net = Network.create ~rng ~graph ~n_estimate:n () in
  (graph, net)

let sample_pairs ?(count = 60) ~n seed =
  let rng = Rng.create (seed * 77) in
  List.init count (fun _ ->
      let s = Rng.int rng n and d = Rng.int rng n in
      (s, d))
  |> List.filter (fun (s, d) -> s <> d)

let converge net at = Network.run_until net at

let test_cold_start_full_reachability () =
  let graph, net = make () in
  Network.activate_all net;
  converge net 400.0;
  let n = Graph.n graph in
  let pairs = sample_pairs ~n 1 in
  let frac = Network.reachable_fraction net ~pairs in
  Alcotest.(check (float 1e-9)) "all sampled pairs deliverable" 1.0 frac

let test_cold_start_routes_valid () =
  let graph, net = make ~seed:5 () in
  Network.activate_all net;
  converge net 400.0;
  let n = Graph.n graph in
  List.iter
    (fun (s, d) ->
      match Network.route net ~src:s ~dst:d with
      | None -> Alcotest.failf "%d -> %d unroutable" s d
      | Some p -> Helpers.check_path graph ~src:s ~dst:d p)
    (sample_pairs ~n 2)

let test_stretch_bounded () =
  let graph, net = make ~seed:7 () in
  Network.activate_all net;
  converge net 400.0;
  let n = Graph.n graph in
  let ws = Dijkstra.make_workspace graph in
  List.iter
    (fun (s, d) ->
      match Network.route net ~src:s ~dst:d with
      | None -> Alcotest.failf "%d -> %d unroutable" s d
      | Some p ->
          let shortest = (Dijkstra.sssp ~ws graph s).Dijkstra.dist.(d) in
          let stretch = Helpers.path_len graph p /. shortest in
          if stretch > 7.0 +. 1e-9 then
            Alcotest.failf "%d -> %d stretch %.2f" s d stretch)
    (sample_pairs ~n 3)

let test_state_bounded () =
  let graph, net = make ~seed:9 () in
  Network.activate_all net;
  converge net 400.0;
  let n = Graph.n graph in
  let k = Disco_core.Params.vicinity_size Disco_core.Params.default ~n in
  let landmarks = Network.landmark_count net in
  Alcotest.(check bool)
    (Printf.sprintf "landmark count %d plausible" landmarks)
    true
    (landmarks >= 3 && landmarks < n / 2);
  for v = 0 to n - 1 do
    let size = Network.route_table_size net v in
    (* routes (k + landmarks) + group addresses (<= group size) +
       resolution share; generous upper bound that still excludes
       anything O(n)-ish at this scale. *)
    let bound = k + landmarks + n / 2 + 10 in
    if size > bound then Alcotest.failf "node %d holds %d > %d entries" v size bound
  done

let test_addresses_present () =
  let graph, net = make ~seed:11 () in
  Network.activate_all net;
  converge net 400.0;
  for v = 0 to Graph.n graph - 1 do
    match Network.address_of net v with
    | None -> Alcotest.failf "node %d has no address" v
    | Some addr ->
        let path = addr.Disco_dynamic.Msg.lm_path in
        Alcotest.(check bool) "address route ends at node" true
          (List.nth path (List.length path - 1) = v);
        Alcotest.(check int) "address route starts at landmark"
          addr.Disco_dynamic.Msg.lm (List.hd path)
  done

let test_late_join () =
  let graph, net = make ~seed:13 () in
  let n = Graph.n graph in
  let newcomer = 17 in
  for v = 0 to n - 1 do
    if v <> newcomer then Network.activate net v
  done;
  converge net 400.0;
  Alcotest.(check bool) "inactive unroutable" true
    (Network.route net ~src:0 ~dst:newcomer = None);
  Network.activate net newcomer;
  converge net 800.0;
  (match Network.route net ~src:0 ~dst:newcomer with
  | None -> Alcotest.fail "newcomer unreachable after join"
  | Some p -> Helpers.check_path graph ~src:0 ~dst:newcomer p);
  match Network.route net ~src:newcomer ~dst:(n - 1) with
  | None -> Alcotest.fail "newcomer cannot send"
  | Some p -> Helpers.check_path graph ~src:newcomer ~dst:(n - 1) p

let test_fail_stop_leave () =
  let graph, net = make ~seed:15 () in
  let n = Graph.n graph in
  Network.activate_all net;
  converge net 400.0;
  (* Pick a non-landmark casualty so this test isolates route repair from
     landmark re-selection (covered by the next test). *)
  let casualty =
    let rec find v = if Network.is_landmark net v then find (v + 1) else v in
    find 20
  in
  Network.deactivate net casualty;
  converge net 900.0; (* past hello + route + address expiry *)
  Alcotest.(check bool) "dead node unroutable" true
    (Network.route net ~src:0 ~dst:casualty = None);
  let pairs =
    sample_pairs ~n 4 |> List.filter (fun (s, d) -> s <> casualty && d <> casualty)
  in
  let frac = Network.reachable_fraction net ~pairs in
  Alcotest.(check (float 1e-9)) "survivors fully connected" 1.0 frac

let test_landmark_failure () =
  let graph, net = make ~seed:17 () in
  let n = Graph.n graph in
  Network.activate_all net;
  converge net 400.0;
  (* Kill a landmark: addresses anchored at it must re-anchor. *)
  let lm =
    let rec find v = if Network.is_landmark net v then v else find (v + 1) in
    find 0
  in
  Network.deactivate net lm;
  converge net 1000.0;
  for v = 0 to min 20 (n - 1) do
    if v <> lm then begin
      match Network.address_of net v with
      | None -> Alcotest.failf "node %d lost its address" v
      | Some addr ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d re-anchored off dead landmark" v)
            true
            (addr.Disco_dynamic.Msg.lm <> lm)
    end
  done;
  let pairs = sample_pairs ~n 5 |> List.filter (fun (s, d) -> s <> lm && d <> lm) in
  Alcotest.(check (float 1e-9)) "reachability restored" 1.0
    (Network.reachable_fraction net ~pairs)

let test_estimate_hysteresis () =
  let graph, net = make ~seed:19 () in
  let n = Graph.n graph in
  Network.activate_all net;
  converge net 200.0;
  let before = Network.landmark_count net in
  (* Small drift: no landmark may flip. *)
  for v = 0 to n - 1 do
    Network.set_estimate net v ~n:(n + (n / 4))
  done;
  Alcotest.(check int) "no flips within factor 2" before (Network.landmark_count net);
  (* Big jump: re-draws happen (counts change with overwhelming
     probability for 64 nodes; equality would mean zero redraws). *)
  for v = 0 to n - 1 do
    Network.set_estimate net v ~n:(n * 8)
  done;
  converge net 600.0;
  let pairs = sample_pairs ~n 6 in
  Alcotest.(check (float 1e-9)) "still fully routable after churn" 1.0
    (Network.reachable_fraction net ~pairs)

let test_messages_flow () =
  let _, net = make ~seed:21 () in
  Network.activate_all net;
  converge net 100.0;
  Alcotest.(check bool) "protocol chatter happened" true (Network.messages_sent net > 0)

let prop_cold_start_converges =
  Helpers.qtest "cold start converges on random topologies" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 48 + (seed mod 32) in
      let graph = Disco_graph.Gen.gnm ~rng ~n ~m:(4 * n) in
      let net = Network.create ~rng ~graph ~n_estimate:n () in
      Network.activate_all net;
      Network.run_until net 400.0;
      let pairs = sample_pairs ~count:25 ~n seed in
      Network.reachable_fraction net ~pairs = 1.0)

(* Component labels of the graph with [casualty] removed: a fail-stop may
   physically partition the topology (e.g. the casualty was a leaf's only
   neighbour), and no protocol repairs a partition — only pairs still
   connected in the residual graph are judged. *)
let residual_components graph ~casualty =
  let n = Graph.n graph in
  let comp = Array.make n (-1) in
  let q = Queue.create () in
  for root = 0 to n - 1 do
    if root <> casualty && comp.(root) < 0 then begin
      comp.(root) <- root;
      Queue.add root q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Graph.iter_neighbors graph u (fun w _ ->
            if w <> casualty && comp.(w) < 0 then begin
              comp.(w) <- root;
              Queue.add w q
            end)
      done
    end
  done;
  comp

let prop_survives_one_failure =
  Helpers.qtest "any single fail-stop is repaired" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 48 in
      let graph = Disco_graph.Gen.gnm ~rng ~n ~m:(4 * n) in
      let net = Network.create ~rng ~graph ~n_estimate:n () in
      Network.activate_all net;
      Network.run_until net 400.0;
      let casualty = seed mod n in
      Network.deactivate net casualty;
      Network.run_until net 1200.0;
      let comp = residual_components graph ~casualty in
      let pairs =
        sample_pairs ~count:25 ~n seed
        |> List.filter (fun (s, d) ->
               s <> casualty && d <> casualty && comp.(s) = comp.(d))
      in
      Network.reachable_fraction net ~pairs = 1.0)

(* The shared walker over [Network.forward], against [Network.route],
   through cold start, a 5% fail-stop and its repair: the walk never
   breaks the data-plane contract, and it delivers exactly when [route]
   does, along the same path.  [route]'s own endpoint prechecks hold at
   every sample too, and a delivered path crosses only live nodes, also
   right after the failure, while tables still point through the dead. *)
let test_walk_matches_route () =
  List.iter
    (fun n ->
      let graph, net = make ~n ~seed:23 () in
      let rng = Rng.create (n + 29) in
      let check_sample () =
        for _ = 1 to 40 do
          let s = Rng.int rng n and d = Rng.int rng n in
          let routed = Network.route net ~src:s ~dst:d in
          if s = d then
            Alcotest.(check (option (list int))) "src = dst" (Some [ s ]) routed
          else if not (Network.is_active net s && Network.is_active net d) then
            Alcotest.(check (option (list int))) "inactive endpoint" None routed
          else begin
            let tr =
              D.walk ~ttl:(4 * n) graph ~forward:(Network.forward net) ~src:s
                (D.plain ~dst:d (D.Seek { tried_proxy = false }))
            in
            let what = Printf.sprintf "n=%d t=%.0f %d -> %d" n (Network.now net) s d in
            (match tr.D.dropped with
            | Some (D.Protocol_error e) -> Alcotest.failf "%s: protocol error: %s" what e
            | _ -> ());
            let walked = if tr.D.delivered then Some tr.D.path else None in
            Alcotest.(check (option (list int))) what routed walked;
            Option.iter
              (fun p ->
                if not (List.for_all (Network.is_active net) p) then
                  Alcotest.failf "%s crosses a failed node" what)
              routed
          end
        done
      in
      Network.activate_all net;
      for step = 1 to 10 do
        converge net (40.0 *. float_of_int step);
        check_sample ()
      done;
      Array.iter (Network.deactivate net)
        (Rng.sample_without_replacement rng (n / 20) n);
      for step = 0 to 9 do
        converge net (400.0 +. (60.0 *. float_of_int step));
        check_sample ()
      done)
    [ 64; 128 ]

(* Until the first address timer fires (2 s after activation) no node
   stores an address, not even its own.  A node steering toward a
   resolution owner re-seeks only with a route or an address for the
   destination, or as the owner, so at the destination itself it still
   forwards toward the owner. *)
let test_steer_passes_through_dst () =
  let graph, net = make ~seed:25 () in
  Network.activate_all net;
  converge net 1.9;
  let forwarded = ref 0 in
  for v = 0 to Graph.n graph - 1 do
    Graph.iter_neighbors graph v (fun owner _ ->
        let h = { (D.plain ~dst:v (D.Steer { tried_proxy = false })) with D.waypoint = owner } in
        match Network.forward net h ~at:v with
        | D.Forward next when next = owner -> incr forwarded
        | D.Drop D.No_route -> () (* no route to the owner yet *)
        | D.Deliver -> Alcotest.failf "node %d re-sought and delivered to itself" v
        | D.Forward next | D.Rewrite (_, next, _) ->
            Alcotest.failf "node %d steering toward %d went to %d" v owner next
        | D.Drop r -> Alcotest.failf "node %d: %s" v (D.reason_to_string r))
  done;
  Alcotest.(check bool) "some destination forwards toward its owner" true (!forwarded > 0)

(* The protocol's fixed-seed trajectory, pinned: cold start, a 5%
   fail-stop and its repair, an estimate jump that flips landmarks, then
   the failed nodes rejoin.  Each checkpoint renders the message count,
   the landmark set, every node's table size and the routes of a fixed
   pair sample, so a changed owner, route, message or table changes the
   digest.  The pinned digests are those of the protocol that rebuilt a
   ring over each node's known landmarks at every resolution lookup.

   The estimate falls to n/4 at the non-landmarks only, so the jump
   promotes and never demotes: a demotion at n = 128 sets off a storm of
   landmark-status flips (1-2M messages per 10 simulated seconds) that
   would take this case past a minute.  The demotion leg below covers
   landmark routes turning non-landmark at sizes where the storm stays
   short. *)
let pinned_run n script =
  let _, net = make ~n ~seed:31 () in
  let rng = Rng.create (n + 37) in
  let pairs = List.init 30 (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  let b = Buffer.create 8192 in
  let landmarks () = List.filter (Network.is_landmark net) (List.init n Fun.id) in
  let checkpoint what =
    Printf.bprintf b "%s t=%.0f msgs=%d landmarks=%d:" what (Network.now net)
      (Network.messages_sent net) (Network.landmark_count net);
    List.iter (Printf.bprintf b " %d") (landmarks ());
    Buffer.add_string b "\ntables:";
    for v = 0 to n - 1 do
      Printf.bprintf b " %d" (Network.route_table_size net v)
    done;
    List.iter
      (fun (s, d) ->
        Printf.bprintf b "\n%d->%d:" s d;
        match Network.route net ~src:s ~dst:d with
        | None -> Buffer.add_string b " none"
        | Some p -> List.iter (Printf.bprintf b " %d") p)
      pairs;
    Buffer.add_char b '\n'
  in
  script net rng landmarks checkpoint;
  Digest.to_hex (Digest.string (Buffer.contents b))

let trajectory n =
  pinned_run n @@ fun net rng landmarks checkpoint ->
  Network.activate_all net;
  converge net 150.0;
  checkpoint "cold start";
  let failed = Rng.sample_without_replacement rng (n / 20) n in
  Array.iter (Network.deactivate net) failed;
  converge net 350.0;
  checkpoint "repaired";
  let before = landmarks () in
  List.iter
    (fun v -> if not (Network.is_landmark net v) then Network.set_estimate net v ~n:(n / 4))
    (List.init n Fun.id);
  Alcotest.(check bool) "the estimate jump flips landmarks" false
    (List.equal Int.equal before (landmarks ()));
  converge net 420.0;
  checkpoint "estimate jump";
  Array.iter (Network.activate net) failed;
  converge net 520.0;
  checkpoint "rejoin"

(* Every landmark's estimate rises to 4n after the cold start, so most
   landmarks demote and their routes turn non-landmark across the
   network.  A fix for the demotion storm changes these messages and
   must re-pin the digests. *)
let demotion n =
  pinned_run n @@ fun net _ landmarks checkpoint ->
  Network.activate_all net;
  converge net 150.0;
  checkpoint "cold start";
  let before = landmarks () in
  List.iter (fun v -> Network.set_estimate net v ~n:(4 * n)) before;
  Alcotest.(check bool) "landmarks demote" true
    (List.length (landmarks ()) < List.length before);
  converge net 250.0;
  checkpoint "demotion"

let test_trajectory_pinned () =
  List.iter
    (fun (n, pinned) ->
      Alcotest.(check string) (Printf.sprintf "n=%d trajectory digest" n) pinned (trajectory n))
    [
      (64, "b4ae9b684e1dd849029dbddad537f673");
      (128, "12e7c6e584b87704a46da0300783d103");
    ]

let test_demotion_pinned () =
  List.iter
    (fun (n, pinned) ->
      Alcotest.(check string) (Printf.sprintf "n=%d demotion digest" n) pinned (demotion n))
    [
      (48, "7297c1b96c1b412f4fddc31f314c4506");
      (64, "488d5135577cf0e566aee1d5cbb60fb4");
    ]

let suite =
  [
    Alcotest.test_case "cold start reaches all pairs" `Slow test_cold_start_full_reachability;
    prop_cold_start_converges;
    prop_survives_one_failure;
    Alcotest.test_case "routes are valid paths" `Slow test_cold_start_routes_valid;
    Alcotest.test_case "stretch bounded" `Slow test_stretch_bounded;
    Alcotest.test_case "state bounded" `Slow test_state_bounded;
    Alcotest.test_case "addresses present" `Slow test_addresses_present;
    Alcotest.test_case "late join" `Slow test_late_join;
    Alcotest.test_case "fail-stop leave" `Slow test_fail_stop_leave;
    Alcotest.test_case "landmark failure" `Slow test_landmark_failure;
    Alcotest.test_case "estimate hysteresis" `Slow test_estimate_hysteresis;
    Alcotest.test_case "messages flow" `Quick test_messages_flow;
    Alcotest.test_case "walk over forward = route under churn" `Slow
      test_walk_matches_route;
    Alcotest.test_case "steering passes through its destination" `Quick
      test_steer_passes_through_dst;
    Alcotest.test_case "fixed-seed trajectory is pinned" `Slow test_trajectory_pinned;
    Alcotest.test_case "fixed-seed demotion is pinned" `Slow test_demotion_pinned;
  ]
