(* The static workloads: converged state is built once per set-up, then
   one closed loop routes pre-encoded packets with the zero-alloc walker
   ([Dataplane.decode_into] + [Dataplane.fast_walk]), one packet at a
   time, until the run's time is spent.

   - disco-glp / disco-geo: Disco alone, built layer by layer
     (Nddisco.build, then groups, overlay and resolution) so each layer's
     cost is its own.
   - schemes-compare: every registry scheme over one shared Testbed; the
     shared build is charged once to testbed.shared, before any scheme. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Core = Disco_core
module D = Core.Dataplane
module Fwd = Core.Forwarding
module Protocol = Disco_experiments.Protocol
module Routers = Disco_experiments.Routers
module Testbed = Disco_experiments.Testbed

(* A scheme's converged state seen through the faces the benchmark
   drives: the typed walker (the oracle) and the compiled fast path. *)
type scheme = {
  name : string;
  plan : D.fast_plan;
  ttl : int;
  first_header : src:int -> dst:int -> D.header;
  later_header : src:int -> dst:int -> D.header;
  forward : D.header -> at:int -> D.decision;
  state_bytes : int -> float;
}

type world = {
  graph : Graph.t;
  schemes : scheme list;
  disco : Core.Disco.t;  (* its landmarks, vicinities and trees *)
}

(* One scheme and header kind: every flow's header on the wire, back to
   back, and the timed loop's counters. *)
type lane = {
  scheme : scheme;
  first : bool;
  walk_span : string;
  headers : D.header array;
  srcs : int array;
  offsets : int array;
  arena : Bytes.t;
  expect : bool array;  (* per flow: delivered by the typed walker *)
  lat : Latency.t;  (* packets, busy time and latency per window *)
  drops : int array;  (* by drop code *)
  mutable hops : int;
  mutable delivered : int;
  mutable wrong : int;  (* verdict differs from [expect] *)
  mutable sampled_hops : int;
}

type ctx = {
  g : Graph.t;
  pkt : D.packet;
  trail : int array;
  trace : Trace.t;
}

let rng seed i = Rng.create (Rng.derive seed i)

let sample_flows r ~n ~count =
  Array.init count (fun _ ->
      let s = Rng.int r n in
      let rec draw () =
        let d = Rng.int r n in
        if d = s then draw () else d
      in
      (s, draw ()))

(* ---- set-up -------------------------------------------------------- *)

let disco_scheme (d : Core.Disco.t) fast =
  {
    name = "disco";
    plan = { D.fstep = Fwd.fast_step fast; D.fprime = Fwd.fast_prime fast };
    ttl = Fwd.ttl_factor * Core.Nddisco.n d.Core.Disco.nd;
    first_header = Fwd.first_header d;
    later_header = Fwd.later_header d;
    forward = Fwd.forward d;
    state_bytes = Core.Disco.packed_state_bytes d;
  }

let prime tr name (s : scheme) flows =
  Trace.span tr name (fun () ->
      Array.iter (fun (src, dst) -> s.plan.D.fprime ~src ~dst) flows)

(* Disco from the topology up, one span per layer. *)
let setup_disco tr ~kind ~n ~seed ~flows =
  let graph = Trace.span tr "gen" (fun () -> Gen.by_kind ~rng:(rng seed 1) kind ~n) in
  let nd = Trace.span tr "nddisco.build" (fun () -> Core.Nddisco.build ~rng:(rng seed 2) graph) in
  let groups = Trace.span tr "groups.build" (fun () -> Core.Groups.of_nddisco nd) in
  let overlay =
    Trace.span tr "overlay.build" (fun () -> Core.Overlay.build ~rng:(rng seed 3) nd groups)
  in
  let resolution = Trace.span tr "resolution.build" (fun () -> Core.Resolution.build nd) in
  let d = { Core.Disco.nd; groups; overlay; resolution } in
  Trace.span tr "vicinity.precompute" (fun () ->
      Core.Vicinity.precompute_all nd.Core.Nddisco.vicinity);
  Trace.span tr "othello.build" (fun () -> ignore (Core.Resolution.fib resolution : Core.Packed.Othello.t));
  let fast = Trace.span tr "compile" (fun () -> Fwd.compile d) in
  let s = disco_scheme d fast in
  prime tr "prime" s flows;
  { graph; schemes = [ s ]; disco = d }

let of_router tr tb (module R : Protocol.ROUTER) flows =
  let tel = Disco_util.Telemetry.create () in
  let rt = Trace.span tr ("build." ^ R.name) (fun () -> R.build tb) in
  let plan = Trace.span tr ("compile." ^ R.name) (fun () -> R.compile rt) in
  let s =
    {
      name = R.name;
      plan;
      ttl = R.ttl_factor * Graph.n tb.Testbed.graph;
      first_header = R.first_header rt ~tel;
      later_header = R.later_header rt ~tel;
      forward = R.forward rt;
      state_bytes = R.state_bytes rt;
    }
  in
  prime tr ("prime." ^ R.name) s flows;
  s

(* Every registry scheme over one Testbed.  The testbed's converged
   Disco/NDDisco/S4 state, the vicinity views and the landmark trees the
   flows touch are shared, so they are built once under testbed.shared;
   each scheme's own build, compile and prime follow. *)
let setup_compare tr ~n ~seed ~flows =
  let kind = Gen.Router_level in
  let graph = Trace.span tr "gen" (fun () -> Gen.by_kind ~rng:(rng seed 1) kind ~n) in
  let tb =
    Trace.span tr "testbed.shared" (fun () ->
        let tb = Trace.span tr "testbed.make" (fun () -> Testbed.of_graph ~seed ~kind graph) in
        let nd = Testbed.nd tb in
        Trace.span tr "vicinity.precompute" (fun () ->
            Core.Vicinity.precompute_all nd.Core.Nddisco.vicinity);
        let res = tb.Testbed.disco.Core.Disco.resolution in
        Trace.span tr "landmark_trees.prime" (fun () ->
            let owners = Core.Resolution.owners_by_node res in
            let force lm = ignore (Core.Landmark_trees.parents nd.Core.Nddisco.trees ~lm : int array) in
            Array.iter
              (fun (_, dst) ->
                if nd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark.(dst) then force dst
                else begin
                  force (Core.Nddisco.address_landmark nd dst);
                  force owners.(dst)
                end)
              flows);
        tb)
  in
  let schemes = List.map (fun r -> of_router tr tb r flows) (Routers.all ()) in
  { graph; schemes; disco = tb.Testbed.disco }

(* ---- lanes: headers, wire arena, checked pass ---------------------- *)

(* The loop's time is cut into [windows] windows; rates and percentiles
   are those of the best sixteenth of them (see Latency). *)
let windows = 32

let make_lane ctx (s : scheme) ~first flows =
  let tr = ctx.trace in
  let header = if first then s.first_header else s.later_header in
  let kind = if first then "first" else "later" in
  let headers =
    Trace.span tr ("header." ^ kind) (fun () ->
        Array.map (fun (src, dst) -> header ~src ~dst) flows)
  in
  let srcs = Array.map fst flows in
  let count = Array.length flows in
  let offsets = Array.make count 0 in
  let arena =
    Trace.span tr "encode" (fun () ->
        let total = ref 0 in
        Array.iteri
          (fun i h ->
            offsets.(i) <- !total;
            total := !total + D.encoded_size ctx.g ~src:srcs.(i) h)
          headers;
        let arena = Bytes.create !total in
        Array.iteri
          (fun i h ->
            ignore (D.encode_header ctx.g ~src:srcs.(i) h arena ~pos:offsets.(i) : int))
          headers;
        arena)
  in
  {
    scheme = s;
    first;
    walk_span = "walk." ^ kind;
    headers;
    srcs;
    offsets;
    arena;
    expect = Array.make count false;
    lat = Latency.create ~windows ~per_window:8192;
    drops = Array.make 4 0;
    hops = 0;
    delivered = 0;
    wrong = 0;
    sampled_hops = 0;
  }

let kind_name lane = if lane.first then "first" else "later"

let walk_fast ctx lane i =
  let src = lane.srcs.(i) in
  D.decode_into ctx.g ctx.pkt lane.arena ~pos:lane.offsets.(i) ~src;
  D.fast_walk ctx.g ~step:lane.scheme.plan.D.fstep ctx.pkt ~src ~ttl:lane.scheme.ttl
    ~trail:ctx.trail

(* fast ≡ typed on flow [i]: same hop sequence and verdict (where the
   typed walk detects a loop, the fast walk must merely not deliver).
   The typed verdict becomes the flow's expected one in the timed loop.
   Returns whether the walks agree, and the fast walk's weighted length
   when delivered. *)
let check_flow ctx lane i =
  let typed =
    D.walk ~ttl:lane.scheme.ttl ctx.g ~forward:lane.scheme.forward ~src:lane.srcs.(i)
      lane.headers.(i)
  in
  lane.expect.(i) <- typed.D.delivered;
  walk_fast ctx lane i;
  let pkt = ctx.pkt in
  let fast_path = List.init (pkt.D.phops + 1) (fun k -> ctx.trail.(k)) in
  let same_path = fast_path = typed.D.path in
  let ok =
    match typed.D.dropped with
    | None -> pkt.D.pdelivered && same_path
    | Some D.Loop_detected -> not pkt.D.pdelivered
    | Some D.Ttl_expired -> pkt.D.pdrop = D.drop_ttl && same_path
    | Some D.No_route -> pkt.D.pdrop = D.drop_no_route && same_path
    | Some (D.Protocol_error _) -> pkt.D.pdrop = D.drop_protocol
  in
  let length =
    if pkt.D.pdelivered then Some (Dijkstra.path_length ctx.g fast_path) else None
  in
  (ok, length)

(* ---- the timed loop ------------------------------------------------ *)

(* Route flows [lo, hi) of [lane] once each.  Nothing here allocates:
   the walker and codec are on the L7 hot manifest, the latency buffer
   and the span arrays are preallocated. *)
let route_range ctx lane lo hi ~sample_mask =
  let pkt = ctx.pkt and tr = ctx.trace in
  for i = lo to hi - 1 do
    let sampled = i land sample_mask = 0 && Trace.has_room tr 3 in
    let src = Array.unsafe_get lane.srcs i in
    let t0 = Trace.now_ns () in
    D.decode_into ctx.g pkt lane.arena ~pos:(Array.unsafe_get lane.offsets i) ~src;
    let t1 = if sampled then Trace.now_ns () else t0 in
    D.fast_walk ctx.g ~step:lane.scheme.plan.D.fstep pkt ~src ~ttl:lane.scheme.ttl
      ~trail:ctx.trail;
    let t2 = Trace.now_ns () in
    let dt = t2 - t0 in
    Latency.add lane.lat dt;
    lane.hops <- lane.hops + pkt.D.phops;
    if pkt.D.pdelivered then lane.delivered <- lane.delivered + 1
    else lane.drops.(pkt.D.pdrop) <- lane.drops.(pkt.D.pdrop) + 1;
    if pkt.D.pdelivered <> Array.unsafe_get lane.expect i then lane.wrong <- lane.wrong + 1;
    if sampled then begin
      let p = Trace.record tr "packet" ~parent:tr.Trace.current ~start:t0 ~stop:t2 in
      ignore (Trace.record tr "decode" ~parent:p ~start:t0 ~stop:t1 : int);
      ignore (Trace.record tr lane.walk_span ~parent:p ~start:t1 ~stop:t2 : int);
      lane.sampled_hops <- lane.sampled_hops + pkt.D.phops
    end
  done

(* Closed loop over chunks of flows: each chunk goes through every lane
   (every scheme, first then later) before the next, until [seconds] are
   spent; every lane and [host] move to their next window together, and
   a host-speed job runs between lane chunks every [Host.period_ns].
   Returns the minor words allocated inside the loop. *)
let run_loop ctx lanes host ~count ~seconds ~sample_mask =
  let chunk = 64 in
  let lanes = Array.of_list lanes in
  let span = int_of_float (seconds *. 1e9) in
  let start = Trace.now_ns () in
  let window_end = ref (start + (span / windows)) in
  let next_job = ref start in
  let before = Gc.minor_words () in
  let lo = ref 0 in
  while Trace.now_ns () < start + span do
    let hi = min count (!lo + chunk) in
    for l = 0 to Array.length lanes - 1 do
      route_range ctx lanes.(l) !lo hi ~sample_mask;
      if Trace.now_ns () >= !next_job then begin
        Host.job host;
        next_job := Trace.now_ns () + Host.period_ns
      end
    done;
    lo := if hi = count then 0 else hi;
    if Trace.now_ns () >= !window_end then begin
      Array.iter (fun l -> Latency.next_window l.lat) lanes;
      Host.next_window host;
      window_end := !window_end + (span / windows)
    end
  done;
  Gc.minor_words () -. before

(* ---- one run ------------------------------------------------------- *)

type workload = Disco_glp | Disco_geo | Compare

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* The topology and the schemes' own randomness (landmark draws, overlay
   fingers) are part of a workload, like a fixed network; the seed draws
   the traffic.  Redrawing the graph per seed moved the packet rates and
   tail latencies by up to a third between seeds (path lengths, hub
   placement), which would swamp any change worth measuring. *)
let topology_seed = 2010

let run (p : Outcome.params) workload =
  let tr = Trace.create ~enabled:p.traced in
  let flows = sample_flows (rng p.seed 4) ~n:p.n ~count:p.flows in
  let seed = topology_seed in
  let build () =
    match workload with
    | Disco_glp -> setup_disco tr ~kind:Gen.Glp ~n:p.n ~seed ~flows
    | Disco_geo -> setup_disco tr ~kind:Gen.Geometric ~n:p.n ~seed ~flows
    | Compare -> setup_compare tr ~n:p.n ~seed ~flows
  in
  let w, setup_s, setup_unscaled = Trace.repeat_setup tr p.setups build in
  let g = w.graph in
  let max_ttl = List.fold_left (fun acc s -> max acc s.ttl) 0 w.schemes in
  let ctx = { g; pkt = D.packet_create g; trail = Array.make (max_ttl + 1) (-1); trace = tr } in
  let lanes =
    List.concat_map
      (fun s -> [ make_lane ctx s ~first:true flows; make_lane ctx s ~first:false flows ])
      w.schemes
  in
  (* Checks, outside the timed regions: fast ≡ typed on every flow, which
     also fixes each flow's expected verdict in the loop, and stretch >= 1
     against Dijkstra on a fixed flow sample. *)
  let stride = max 1 (p.flows / p.checked) in
  let checked = List.init (min p.checked p.flows) (fun k -> k * stride) in
  let dist =
    Trace.span tr "dijkstra.oracle" (fun () ->
        let ws = Dijkstra.make_workspace g in
        List.map (fun i -> Dijkstra.distance ~ws g (fst flows.(i)) (snd flows.(i))) checked)
  in
  let mismatches = ref 0 and short = ref 0 in
  let stretch =
    Trace.span tr "typed.check" (fun () ->
        List.map
          (fun lane ->
            let lengths =
              Array.init p.flows (fun i ->
                  let ok, length = check_flow ctx lane i in
                  if not ok then incr mismatches;
                  length)
            in
            let xs =
              List.concat
                (List.map2
                   (fun i d ->
                     match lengths.(i) with
                     | Some l ->
                         if l < d *. (1.0 -. 1e-9) then incr short;
                         [ l /. d ]
                     | None -> [])
                   checked dist)
            in
            (lane, xs))
          lanes)
  in
  (* The timed closed loop. *)
  let sample_mask = 15 in
  let host = Host.create ~windows in
  let words =
    Trace.span tr "loop" (fun () ->
        run_loop ctx lanes host ~count:p.flows ~seconds:p.seconds ~sample_mask)
  in
  let firsts = List.filter (fun l -> l.first) lanes
  and laters = List.filter (fun l -> not l.first) lanes in
  let lane_packets l = Latency.packets l.lat in
  let packets = sum lane_packets lanes in
  let hops = sum (fun l -> l.hops) lanes in
  let wrong = sum (fun l -> l.wrong) lanes in
  let words_per_hop = if hops = 0 then 0.0 else words /. float_of_int hops in
  (* With several schemes (schemes-compare), each figure is the geometric
     mean over schemes, so every scheme weighs the same and the slowest
     one does not drown the rest (see Latency). *)
  let timings scaled =
    let slowdown = if scaled then Host.slowdown host else fun _ -> 1.0 in
    let lats ls = List.map (fun l -> l.lat) ls in
    let rate ls = Latency.rate ~slowdown (lats ls) in
    let us q ls = Latency.percentile ~slowdown (lats ls) q /. 1000.0 in
    [
      ("first_pkts_per_s", rate firsts);
      ("later_pkts_per_s", rate laters);
      ("first_pkt_us_p50", us 0.5 firsts);
      ("first_pkt_us_p99", us 0.99 firsts);
      ("later_pkt_us_p50", us 0.5 laters);
      ("later_pkt_us_p99", us 0.99 laters);
    ]
  in
  let stretch_of ls = Emit.mean (List.concat_map (fun l -> List.assq l stretch) ls) in
  let node_sample =
    let r = rng p.seed 5 in
    List.init (min p.n 256) (fun _ -> Rng.int r p.n)
  in
  let state_mean s = Emit.mean (List.map s.state_bytes node_sample) in
  let state = List.map (fun s -> (s.name, state_mean s)) w.schemes in
  let e2e =
    (("setup_s", setup_s) :: timings true)
    @ [
      ("delivered_frac", ratio (sum (fun l -> l.delivered) lanes) packets);
      ("stretch_first", stretch_of firsts);
      ("stretch_later", stretch_of laters);
      ("state_bytes_per_node", List.fold_left (fun acc (_, b) -> acc +. b) 0.0 state);
    ]
  in
  let layers =
    if not p.traced then []
    else begin
      let setup = Trace.medians_under tr "setup" in
      let med name = Option.value (List.assoc_opt name setup) ~default:0.0 in
      let d = w.disco in
      let nd = d.Core.Disco.nd in
      let cases = Array.make 6 0 in
      Array.iter
        (fun (src, dst) ->
          let k =
            match Core.Disco.classify_first d ~src ~dst with
            | Core.Disco.Trivial -> 0
            | Direct_vicinity -> 1
            | Direct_landmark -> 2
            | Known_address -> 3
            | Via_group_member _ -> 4
            | Resolution_fallback -> 5
          in
          cases.(k) <- cases.(k) + 1)
        flows;
      let span_ns name = List.fold_left (fun acc i -> acc + Trace.duration tr i) 0 (Trace.find_all tr name) in
      let sampled_hops ls = sum (fun l -> l.sampled_hops) ls in
      let drop code = ratio (sum (fun l -> l.drops.(code)) lanes) packets in
      let bytes ls = ratio (sum (fun l -> Bytes.length l.arena) ls) (sum (fun l -> Array.length l.srcs) ls) in
      let setup_layers =
        List.map
          (fun (span, metric) -> (metric, med span))
          [
            ("gen", "gen.s");
            ("nddisco.build", "nddisco.build_s");
            ("groups.build", "groups.build_s");
            ("overlay.build", "overlay.build_s");
            ("resolution.build", "resolution.build_s");
            ("vicinity.precompute", "vicinity.precompute_s");
            ("othello.build", "othello.build_s");
            ("testbed.shared", "testbed.shared_s");
          ]
      in
      let per_scheme =
        List.concat_map
          (fun s ->
            let mine = List.filter (fun l -> l.scheme == s) lanes in
            let own span = med (span ^ "." ^ s.name) in
            let build, compile, prime =
              match workload with
              | Compare -> (own "build", own "compile", own "prime")
              | Disco_glp | Disco_geo ->
                  ( List.fold_left ( +. ) 0.0
                      (List.map med
                         [ "nddisco.build"; "groups.build"; "overlay.build"; "resolution.build";
                           "vicinity.precompute"; "othello.build" ]),
                    med "compile",
                    med "prime" )
            in
            [
              ("build." ^ s.name ^ ".s", build);
              ("compile." ^ s.name ^ ".s", compile);
              ("prime." ^ s.name ^ ".s", prime);
              ("walk." ^ s.name ^ ".pkts_per_s",
                float_of_int (sum lane_packets mine)
                /. (float_of_int (sum (fun l -> Latency.busy_ns l.lat) mine) *. 1e-9));
              ("walk." ^ s.name ^ ".ns_per_hop",
                ratio (sum (fun l -> Latency.busy_ns l.lat) mine) (sum (fun l -> l.hops) mine));
              ("walk." ^ s.name ^ ".delivered_frac",
                ratio (sum (fun l -> l.delivered) mine) (sum lane_packets mine));
              ("state." ^ s.name ^ ".bytes_per_node", List.assoc s.name state);
            ])
          w.schemes
      in
      let compile_total, prime_total =
        match workload with
        | Compare ->
            ( List.fold_left ( +. ) 0.0 (List.map (fun s -> med ("compile." ^ s.name)) w.schemes),
              List.fold_left ( +. ) 0.0 (List.map (fun s -> med ("prime." ^ s.name)) w.schemes) )
        | Disco_glp | Disco_geo -> (med "compile", med "prime")
      in
      setup_layers @ per_scheme
      @ [
          ("graph.edges", float_of_int (Graph.m g));
          ("landmarks.count", float_of_int (Core.Landmarks.count nd.Core.Nddisco.landmarks));
          ("vicinity.views", float_of_int (Core.Vicinity.cached_count nd.Core.Nddisco.vicinity));
          ("vicinity.k", float_of_int (Core.Vicinity.k nd.Core.Nddisco.vicinity));
          ("compile.s", compile_total);
          ("prime.s", prime_total);
          ("landmark_trees.forced", float_of_int (Core.Landmark_trees.cached_count nd.Core.Nddisco.trees));
          ("header.first_s", Trace.total_s tr "header.first");
          ("header.later_s", Trace.total_s tr "header.later");
          ("encode.s", Trace.total_s tr "encode");
          ("encode.bytes_per_pkt.first", bytes firsts);
          ("encode.bytes_per_pkt.later", bytes laters);
          ("decode.ns_per_pkt", ratio (span_ns "decode") (Trace.count tr "decode"));
          ("seek.case.direct_vicinity", ratio cases.(1) p.flows);
          ("seek.case.direct_landmark", ratio cases.(2) p.flows);
          ("seek.case.known_address", ratio cases.(3) p.flows);
          ("seek.case.via_group_member", ratio cases.(4) p.flows);
          ("seek.case.resolution_fallback", ratio cases.(5) p.flows);
          ("walk.ns_per_hop.first", ratio (span_ns "walk.first") (sampled_hops firsts));
          ("walk.ns_per_hop.later", ratio (span_ns "walk.later") (sampled_hops laters));
          ("walk.hops_per_pkt.first", ratio (sum (fun l -> l.hops) firsts) (sum lane_packets firsts));
          ("walk.hops_per_pkt.later", ratio (sum (fun l -> l.hops) laters) (sum lane_packets laters));
          ("walk.words_per_hop", words_per_hop);
          ("walk.drop.ttl", drop D.drop_ttl);
          ("walk.drop.no_route", drop D.drop_no_route);
          ("walk.drop.protocol", drop D.drop_protocol);
          ("dijkstra.oracle_s", Trace.total_s tr "dijkstra.oracle");
          ("typed.check_s", Trace.total_s tr "typed.check");
          ("typed.mismatches", float_of_int !mismatches);
          ("trace.setup_covered_frac", Trace.covered_share tr "setup");
        ]
    end
  in
  {
    Outcome.e2e;
    unscaled =
      (("setup_s", setup_unscaled) :: timings false)
      @ [ ("host.slowdown",
           Emit.median (List.map (Host.slowdown host) (Latency.used (List.hd lanes).lat))) ];
    layers;
    attempted = packets;
    failed = wrong + !mismatches;
    gates =
      [
        ("fast_equals_typed", !mismatches = 0);
        ("stretch_at_least_1", !short = 0);
        ("zero_alloc_loop", words_per_hop < 1e-4);
        ("loop_verdicts_match_typed", wrong = 0);
        ("routed_some", packets > 0);
      ];
    trace = tr;
    windows =
      String.concat ", "
        (Host.windows_json host (Latency.used (List.hd lanes).lat)
        :: List.map (fun l -> Latency.windows_json (l.scheme.name ^ "." ^ kind_name l) l.lat) lanes);
  }
