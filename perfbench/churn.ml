(* The churn workload: the event-driven Disco protocol (Network) on
   G(n, 4n).  Set-up is Network.create plus cold-start convergence.  The
   measured part is a 5% fail-stop and a fixed window of soft-state
   repair with route queries over a fixed pair sample interleaved every
   [step] simulated seconds, then [--seconds] of queries on the repaired
   network.  "First" queries are those issued while the network repairs,
   "later" ones those on converged state (before the failure and after
   the repair window). *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Network = Disco_dynamic.Network

let cold_end = 300.0
let step = 20.0
let window = 500.0
let fail_share = 0.05

let rng = Static.rng

(* The topology, the protocol's own randomness and the pool of query
   pairs are part of the workload, not of the seed: at n = 256 the
   landmark count (one coin per node) moves by about 15% between
   topologies, the cost of a resolving query follows it, and queries
   split about evenly between ones the source's tables answer directly
   (a few us) and resolving ones (about 100 us), so redrawing either
   would swamp any change worth measuring.  The seed draws the failed
   nodes; pairs touching them leave the pool. *)
let topology_seed = Static.topology_seed

(* Query counters for one kind (first or later). *)
type kind = {
  lat : Latency.t;  (* queries, busy time and latencies per window *)
  host : Host.t;  (* the host's speed over the same windows *)
  mutable delivered : int;
  mutable stretch_sum : float;
  mutable stretch_n : int;
}

let kind ~windows =
  { lat = Latency.create ~windows ~per_window:4096; host = Host.create ~windows; delivered = 0;
    stretch_sum = 0.0; stretch_n = 0 }

let next_window k =
  Latency.next_window k.lat;
  Host.next_window k.host

let distinct_nodes r ~n ~count =
  let chosen = Array.make n false in
  let rec pick k acc =
    if k = 0 then acc
    else begin
      let v = Rng.int r n in
      if chosen.(v) then pick k acc
      else begin
        chosen.(v) <- true;
        pick (k - 1) (v :: acc)
      end
    end
  in
  pick count []

(* The graph restricted to active nodes (ids kept; dead nodes isolated),
   the oracle for routes that may only cross live nodes. *)
let surviving graph alive =
  let b = Graph.Builder.create (Graph.n graph) in
  List.iter
    (fun (u, v, w) -> if alive u && alive v then Graph.Builder.add_edge b u v w)
    (Graph.edges graph);
  Graph.Builder.build b

let run (p : Outcome.params) =
  let tr = Trace.create ~enabled:p.traced in
  let n = p.n in
  let build () =
    let graph = Trace.span tr "gen" (fun () -> Gen.gnm ~rng:(rng topology_seed 1) ~n ~m:(4 * n)) in
    let net =
      Trace.span tr "network.create" (fun () ->
          Network.create ~rng:(rng topology_seed 2) ~graph ~n_estimate:n ())
    in
    Trace.span tr "network.cold" (fun () ->
        Network.activate_all net;
        Network.run_until net cold_end);
    (graph, net)
  in
  let (graph, net), setup_s, setup_unscaled = Trace.repeat_setup tr p.setups build in
  let msgs_cold = Network.messages_sent net in
  let victims = distinct_nodes (rng p.seed 3) ~n ~count:(max 1 (int_of_float (fail_share *. float_of_int n))) in
  let alive v = not (List.mem v victims) in
  let after = surviving graph alive in
  (* Pairs that the failure disconnects can never be repaired, so they
     leave the pool with the pairs that touch a failed node. *)
  let pairs, dist_before, dist_after =
    Trace.span tr "dijkstra.oracle" (fun () ->
        let ws = Dijkstra.make_workspace graph and ws_after = Dijkstra.make_workspace after in
        Static.sample_flows (rng topology_seed 4) ~n ~count:p.flows
        |> Array.to_list
        |> List.filter_map (fun (s, d) ->
               let da = Dijkstra.distance ~ws:ws_after after s d in
               if alive s && alive d && Float.is_finite da then
                 Some ((s, d), Dijkstra.distance ~ws graph s d, da)
               else None)
        |> Array.of_list
        |> fun a ->
        (Array.map (fun (pr, _, _) -> pr) a, Array.map (fun (_, b, _) -> b) a,
         Array.map (fun (_, _, da) -> da) a))
  in
  (* First queries get one window per repair step, later ones
     [Static.windows] windows over the timed loop. *)
  let steps = int_of_float (window /. step) in
  let first = kind ~windows:steps and later = kind ~windows:Static.windows in
  let invalid = ref 0 and short = ref 0 and check_ns = ref 0 in
  (* A returned route must be a walk over live nodes and real links from
     src to dst, no shorter than the shortest path. *)
  let check i path d (k : kind) =
    let t0 = Trace.now_ns () in
    let src, dst = pairs.(i) in
    let rec links = function
      | a :: (b :: _ as rest) -> Graph.has_edge graph a b && links rest
      | _ -> true
    in
    let ok =
      path <> []
      && List.hd path = src
      && List.nth path (List.length path - 1) = dst
      && List.for_all (Network.is_active net) path
      && links path
    in
    if not ok then incr invalid
    else begin
      let len = Dijkstra.path_length graph path in
      if len < d *. (1.0 -. 1e-9) then incr short;
      k.stretch_sum <- k.stretch_sum +. (len /. d);
      k.stretch_n <- k.stretch_n + 1
    end;
    check_ns := !check_ns + (Trace.now_ns () - t0)
  in
  let query (k : kind) dists i =
    let src, dst = pairs.(i) in
    let sampled = i land 15 = 0 && Trace.has_room tr 1 in
    let t0 = Trace.now_ns () in
    let r = Network.route net ~src ~dst in
    let t1 = Trace.now_ns () in
    if sampled then ignore (Trace.record tr "network.route" ~parent:tr.Trace.current ~start:t0 ~stop:t1 : int);
    Latency.add k.lat (t1 - t0);
    match r with
    | Some path ->
        k.delivered <- k.delivered + 1;
        check i path dists.(i) k;
        true
    | None -> false
  in
  let sweep k dists =
    let ok = ref 0 in
    Array.iteri
      (fun i _ ->
        if i land 31 = 0 then Host.job k.host;
        if query k dists i then incr ok)
      pairs;
    float_of_int !ok /. float_of_int (Array.length pairs)
  in
  let reach0 = sweep later dist_before in
  List.iter (Network.deactivate net) victims;
  let t_fail = Network.now net in
  let repair_ns = ref 0 and reach_at_failure = ref nan and repaired_at = ref nan in
  for k = 1 to steps do
    let t0 = Trace.now_ns () in
    Trace.span tr "network.repair" (fun () ->
        Network.run_until net (t_fail +. (float_of_int k *. step)));
    repair_ns := !repair_ns + (Trace.now_ns () - t0);
    let reach = sweep first dist_after in
    (* A second sweep on the same state, so each window holds enough
       queries for its tail percentile. *)
    ignore (sweep first dist_after : float);
    next_window first;
    if k = 1 then reach_at_failure := reach;
    if Float.is_nan !repaired_at && reach >= reach0 then
      repaired_at := float_of_int k *. step
  done;
  let msgs_repair = Network.messages_sent net - msgs_cold in
  let reach_final = sweep later dist_after in
  let span = int_of_float (p.seconds *. 1e9) in
  let start = Trace.now_ns () and w = ref 1 in
  while Trace.now_ns () < start + span do
    ignore (sweep later dist_after : float);
    if Trace.now_ns () >= start + (!w * span / Static.windows) then begin
      next_window later;
      incr w
    end
  done;
  let queries = Latency.packets first.lat + Latency.packets later.lat in
  let mean_stretch k = if k.stretch_n = 0 then nan else k.stretch_sum /. float_of_int k.stretch_n in
  let active = List.filter (Network.is_active net) (List.init n Fun.id) in
  let timings scaled =
    (* A query rebuilds the resolution ring and allocates as it goes, so
       its speed followed the core part of the reference job (per window,
       twice as closely as the combined slowdown). *)
    let slowdown k = if scaled then Host.core_slowdown k.host else fun _ -> 1.0 in
    let rate k = Latency.rate ~slowdown:(slowdown k) [ k.lat ] in
    let us k q = Latency.percentile ~slowdown:(slowdown k) [ k.lat ] q /. 1000.0 in
    [
      ("first_pkts_per_s", rate first);
      ("later_pkts_per_s", rate later);
      ("first_pkt_us_p50", us first 0.5);
      ("first_pkt_us_p99", us first 0.99);
      ("later_pkt_us_p50", us later 0.5);
      ("later_pkt_us_p99", us later 0.99);
    ]
  in
  let e2e =
    (("setup_s", setup_s) :: timings true)
    @ [
      ("delivered_frac", float_of_int (first.delivered + later.delivered) /. float_of_int queries);
      ("stretch_first", mean_stretch first);
      ("stretch_later", mean_stretch later);
      ("state_bytes_per_node",
        float_of_int (Obj.reachable_words (Obj.repr net) * (Sys.word_size / 8)) /. float_of_int n);
    ]
  in
  let layers =
    if not p.traced then []
    else begin
      let setup = Trace.medians_under tr "setup" in
      let med name = Option.value (List.assoc_opt name setup) ~default:0.0 in
      let cold_wall = med "network.cold" in
      let repair_s = float_of_int !repair_ns *. 1e-9 in
      [
        ("gen.s", med "gen");
        ("graph.edges", float_of_int (Graph.m graph));
        ("network.cold_s", cold_wall);
        ("network.repair_s", repair_s);
        ("network.msgs_cold", float_of_int msgs_cold);
        ("network.msgs_repair", float_of_int msgs_repair);
        ("network.reach_at_failure", !reach_at_failure);
        ("network.table_entries_mean",
          Emit.mean (List.map (fun v -> float_of_int (Network.route_table_size net v)) active));
        ("network.landmarks", float_of_int (Network.landmark_count net));
        ("sim_msgs_per_s", float_of_int (msgs_cold + msgs_repair) /. (cold_wall +. repair_s));
        ("repair_sim_s", !repaired_at);
        ("control_msgs", float_of_int (msgs_cold + msgs_repair));
        ("dijkstra.oracle_s", Trace.total_s tr "dijkstra.oracle");
        ("typed.check_s", float_of_int !check_ns *. 1e-9);
        ("typed.mismatches", float_of_int !invalid);
        ("trace.setup_covered_frac", Trace.covered_share tr "setup");
      ]
    end
  in
  {
    Outcome.e2e;
    unscaled =
      (("setup_s", setup_unscaled) :: timings false)
      @ [ ("host.slowdown",
           Emit.median (List.map (Host.core_slowdown later.host) (Latency.used later.lat))) ];
    layers;
    attempted = queries;
    failed = !invalid + !short;
    gates =
      [
        ("routes_are_live_walks", !invalid = 0);
        ("stretch_at_least_1", !short = 0);
        ("reach_restored", reach_final >= reach0 && not (Float.is_nan !repaired_at));
      ];
    trace = tr;
    windows =
      String.concat ", "
        [
          Latency.windows_json "first" first.lat;
          Latency.windows_json "later" later.lat;
          Host.windows_json later.host (Latency.used later.lat);
        ];
  }
