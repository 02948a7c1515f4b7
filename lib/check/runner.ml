module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module Nddisco = Disco_core.Nddisco
module Vicinity = Disco_core.Vicinity
module Landmarks = Disco_core.Landmarks
module Params = Disco_core.Params
module Landmark_churn = Disco_core.Landmark_churn
module Dataplane = Disco_core.Dataplane
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Walk = Disco_experiments.Walk

type outcome = {
  n : int;
  pairs_checked : int;
  schemes : string list;
  route_failures : int;
  violations : Violation.t list;
}

let failed o = o.violations <> []

(* Float slop for stretch comparisons: path lengths and oracle distances
   are sums of the same weights in different orders. *)
let eps = 1e-6

let coverage (nd : Nddisco.t) =
  let lm = nd.Nddisco.landmarks in
  let n = Graph.n nd.Nddisco.graph in
  let covered v =
    lm.Landmarks.is_landmark.(v)
    || begin
         let view = Vicinity.view nd.Nddisco.vicinity v in
         Array.exists (fun w -> lm.Landmarks.is_landmark.(w)) view.Vicinity.members
       end
  in
  let ok = ref true in
  for v = 0 to n - 1 do
    if !ok && not (covered v) then ok := false
  done;
  !ok

(* A route must be a real walk from src to dst over graph edges; its
   length is the sum of the edge weights it traverses. *)
let validate g ~src ~dst path =
  match path with
  | [] -> Error "empty route"
  | first :: _ when first <> src -> Error (Printf.sprintf "starts at %d, not src" first)
  | first :: rest ->
      let rec walk prev len = function
        | [] -> if prev = dst then Ok len else Error (Printf.sprintf "ends at %d, not dst" prev)
        | hop :: tl -> (
            match Graph.edge_weight g prev hop with
            | None -> Error (Printf.sprintf "no edge %d-%d" prev hop)
            | Some w -> walk hop (len +. w) tl)
      in
      walk first 0.0 rest

type pair_result = {
  src : int;
  dst : int;
  oracle : (int list * int list) option;
      (** the closed-form (first, later) routes, for schemes that keep one *)
  walk_first : Dataplane.trace;  (** data plane's first packet *)
  walk_later : Dataplane.trace;
  first_fallback : bool;
      (** the first-packet walk detoured via the resolution database *)
}

type measurement = {
  results : pair_result list;
  states : int array;
  tel : Telemetry.t;
}

(* Each pair is walked hop by hop through the scheme's data plane, and
   routed by its closed-form oracle where it keeps one; the runner checks
   the walks and holds the oracle against them (check_walk). *)
let measure (packed : Protocol.packed) tb pairs =
  let module R = (val packed : Protocol.ROUTER) in
  let tel = Telemetry.create () in
  let rt = R.build tb in
  let graph = tb.Testbed.graph in
  let results =
    List.map
      (fun (src, dst) ->
        let oracle = Option.map (fun f -> f rt ~src ~dst) R.oracle in
        let walk_first = Walk.first_trace (module R) rt ~tel ~graph ~src ~dst in
        let walk_later = Walk.later_trace (module R) rt ~tel ~graph ~src ~dst in
        {
          src;
          dst;
          oracle;
          walk_first;
          walk_later;
          first_fallback = Walk.fell_back walk_first;
        })
      pairs
  in
  let n = Graph.n graph in
  let states = Array.init n (fun v -> R.state_entries rt v) in
  { results; states; tel }

let oracle_distances g pairs =
  let ws = Dijkstra.make_workspace g in
  let cache = Hashtbl.create 16 in
  List.map
    (fun (src, dst) ->
      let sp =
        match Hashtbl.find_opt cache src with
        | Some sp -> sp
        | None ->
            let sp = Dijkstra.sssp ~ws g src in
            Hashtbl.add cache src sp;
            sp
      in
      sp.Dijkstra.dist.(dst))
    pairs

(* The universal invariants on one walk. A [Protocol_error] drop is a bug
   in every scheme — non-neighbor hop, misdelivery, refused header: the
   forward function broke the data-plane contract itself. *)
let check_phase ~violations ~scheme ~spec ~covered g ~phase ~dist pr
    (tr : Dataplane.trace) ~fallback =
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  let bound =
    match phase with "first" -> spec.Spec.first_bound | _ -> spec.Spec.later_bound
  in
  let bound_applies =
    ((not spec.Spec.needs_coverage) || covered)
    && not (String.equal phase "first" && spec.Spec.skip_fallback_first && fallback)
  in
  match tr.Dataplane.dropped with
  | Some (Dataplane.Protocol_error _ as r) ->
      add
        (Violation.Dataplane_error
           { phase; src = pr.src; dst = pr.dst; detail = Dataplane.reason_to_string r })
  | Some _ ->
      if spec.Spec.guaranteed_delivery && dist < infinity then
        add (Violation.Delivery_failure { phase; src = pr.src; dst = pr.dst })
  | None -> (
      match validate g ~src:pr.src ~dst:pr.dst tr.Dataplane.path with
      | Error reason ->
          add (Violation.Invalid_path { phase; src = pr.src; dst = pr.dst; reason })
      | Ok len ->
          let stretch = len /. dist in
          if stretch < 1.0 -. eps then
            add (Violation.Beats_oracle { phase; src = pr.src; dst = pr.dst; stretch });
          (match bound with
          | Some b when bound_applies && stretch > b +. eps ->
              add
                (Violation.Stretch_exceeded
                   { phase; src = pr.src; dst = pr.dst; stretch; bound = b })
          | _ -> ()))

(* Walk ≡ oracle, for the schemes that keep a closed-form route. Both
   faces must agree on the delivery verdict (the oracle always routes),
   and a delivered walk must land on the oracle's weighted length: it may
   divert from knowledge at a different-but-equivalent point, but every
   divert rides a shortest path. *)
let check_walk ~violations ~scheme g ~phase pr ~oracle_route
    (tr : Dataplane.trace) =
  let diverge detail =
    violations :=
      {
        Violation.scheme;
        kind = Violation.Walk_divergence { phase; src = pr.src; dst = pr.dst; detail };
      }
      :: !violations
  in
  match tr.Dataplane.dropped with
  | Some (Dataplane.Protocol_error _) -> () (* check_phase reports it *)
  | Some r ->
      diverge
        (Printf.sprintf "oracle routes but the walk dropped (%s)"
           (Dataplane.reason_to_string r))
  | None -> (
      (* The walker validated every hop as a graph edge. *)
      let len_walk = Dijkstra.path_length g tr.Dataplane.path in
      match validate g ~src:pr.src ~dst:pr.dst oracle_route with
      | Error reason -> diverge ("invalid oracle route: " ^ reason)
      | Ok len_oracle ->
          if Float.abs (len_walk -. len_oracle) > eps then
            diverge
              (Printf.sprintf "walk length %.6f, oracle length %.6f" len_walk len_oracle))

(* Fast ≡ typed, per scheme: encode the scheme's own headers through the
   wire codec, route them with the compiled forward over one scratch
   packet, and hold the zero-alloc walk to the typed walk's exact hop
   sequence and verdict.  The one sanctioned difference is loop
   detection, which the fast walker doesn't do: where the typed walk
   reports [Loop_detected], the fast walk must merely not deliver (it
   replays the cycle until TTL). *)
let check_fastpath ~violations ~scheme (packed : Protocol.packed) tb m =
  let module R = (val packed : Protocol.ROUTER) in
  let tel = Telemetry.create () in
  let rt = R.build tb in
  let plan = R.compile rt in
  let g = tb.Testbed.graph in
  let ttl = R.ttl_factor * Graph.n g in
  let pkt = Dataplane.packet_create g in
  let trail = Array.make (ttl + 1) (-1) in
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  let trail_path phops =
    let rec collect i acc = if i < 0 then acc else collect (i - 1) (trail.(i) :: acc) in
    collect phops []
  in
  let check_one ~phase ~src ~dst header (typed : Dataplane.trace) =
    let size = Dataplane.encoded_size g ~src header in
    let buf = Bytes.create size in
    let written = Dataplane.encode_header g ~src header buf ~pos:0 in
    if written <> size then
      add
        (Violation.Fastpath_divergence
           {
             phase;
             src;
             dst;
             detail =
               Printf.sprintf "codec size mismatch: sized %d, wrote %d" size written;
           })
    else begin
      Dataplane.decode_into g pkt buf ~pos:0 ~src;
      Dataplane.fast_walk g ~step:plan.Dataplane.fstep pkt ~src ~ttl ~trail;
      let fast_verdict () =
        if pkt.Dataplane.pdelivered then "delivered"
        else Dataplane.drop_to_string pkt.Dataplane.pdrop
      in
      let diverge detail = add (Violation.Fastpath_divergence { phase; src; dst; detail }) in
      let require_same_path () =
        if trail_path pkt.Dataplane.phops <> typed.Dataplane.path then
          diverge
            (Printf.sprintf "hop sequences differ (fast %d hops, typed %d hops)"
               pkt.Dataplane.phops
               (List.length typed.Dataplane.path - 1))
      in
      match typed.Dataplane.dropped with
      | None ->
          if not pkt.Dataplane.pdelivered then
            diverge
              (Printf.sprintf "typed walk delivered, fast walk %s" (fast_verdict ()))
          else require_same_path ()
      | Some Dataplane.Loop_detected ->
          if pkt.Dataplane.pdelivered then
            diverge "typed walk looped, fast walk delivered"
      | Some Dataplane.Ttl_expired ->
          if pkt.Dataplane.pdrop <> Dataplane.drop_ttl then
            diverge
              (Printf.sprintf "typed walk expired its TTL, fast walk %s"
                 (fast_verdict ()))
          else require_same_path ()
      | Some Dataplane.No_route ->
          if pkt.Dataplane.pdrop <> Dataplane.drop_no_route then
            diverge
              (Printf.sprintf "typed walk dropped (no route), fast walk %s"
                 (fast_verdict ()))
          else require_same_path ()
      | Some (Dataplane.Protocol_error _) ->
          if pkt.Dataplane.pdrop <> Dataplane.drop_protocol then
            diverge
              (Printf.sprintf "typed walk hit a protocol error, fast walk %s"
                 (fast_verdict ()))
    end
  in
  List.iter
    (fun pr ->
      plan.Dataplane.fprime ~src:pr.src ~dst:pr.dst;
      check_one ~phase:"first" ~src:pr.src ~dst:pr.dst
        (R.first_header rt ~tel ~src:pr.src ~dst:pr.dst)
        pr.walk_first;
      check_one ~phase:"later" ~src:pr.src ~dst:pr.dst
        (R.later_header rt ~tel ~src:pr.src ~dst:pr.dst)
        pr.walk_later)
    m.results

let check_states ~violations ~scheme ~spec ~n states =
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  (* Report only the worst offending node per kind, not one violation per
     node: the shrinker wants a signal, not n copies of it. *)
  let worst_neg = ref None and worst_over = ref None in
  Array.iteri
    (fun node entries ->
      if entries < 0 then
        match !worst_neg with
        | Some (_, e) when e <= entries -> ()
        | _ -> worst_neg := Some (node, entries)
      else
        match spec.Spec.state_bound with
        | None -> ()
        | Some f ->
            let bound = f ~n in
            if float_of_int entries > bound +. eps then
              match !worst_over with
              | Some (_, e, _) when e >= entries -> ()
              | _ -> worst_over := Some (node, entries, bound))
    states;
  (match !worst_neg with
  | Some (node, entries) -> add (Violation.Negative_state { node; entries })
  | None -> ());
  match !worst_over with
  | Some (node, entries, bound) -> add (Violation.State_exceeded { node; entries; bound })
  | None -> ()

let routes_of m = List.map (fun pr -> pr.oracle) m.results

let walks_of m =
  List.map
    (fun pr ->
      ( pr.walk_first.Dataplane.path,
        pr.walk_first.Dataplane.delivered,
        pr.walk_later.Dataplane.path,
        pr.walk_later.Dataplane.delivered ))
    m.results

let check_determinism ~violations ~scheme m m' =
  let add what =
    violations := { Violation.scheme; kind = Violation.Nondeterministic { what } } :: !violations
  in
  if routes_of m <> routes_of m' then add "routes";
  if walks_of m <> walks_of m' then add "data-plane walks";
  if m.states <> m'.states then add "state tables";
  (* The full snapshot: the walk/hop/rewrite/byte counters must reproduce
     bit for bit along with the rest. *)
  if Telemetry.snapshot m.tel <> Telemetry.snapshot m'.tel then
    add "telemetry counters"

let check_differential ~violations disco nd =
  let later pr = Option.map snd pr.oracle in
  List.iter2
    (fun (d : pair_result) (x : pair_result) ->
      if later d <> later x then
        let hops = function None -> -1 | Some p -> List.length p in
        violations :=
          {
            Violation.scheme = "disco";
            kind =
              Violation.Differential_mismatch
                {
                  other = "nddisco";
                  src = d.src;
                  dst = d.dst;
                  detail =
                    Printf.sprintf "later routes differ (%d vs %d hops)"
                      (hops (later d)) (hops (later x));
                };
          }
          :: !violations)
    disco.results nd.results

(* Hysteresis flips only on a >= 2x size change since a node's own last
   re-draw. A schedule confined to [0.75, 1.33] x n0 keeps every ratio —
   including for nodes created mid-schedule — below 1.33 / 0.75 < 2, so
   any flip at all is a bug, deterministically. *)
let check_churn ~violations (sc : Scenario.t) ~n =
  if sc.Scenario.churn_steps > 0 then begin
    let sched = Rng.create (Rng.derive sc.Scenario.seed Scenario.churn_schedule_purpose) in
    let pop = Rng.create (Rng.derive sc.Scenario.seed Scenario.churn_population_purpose) in
    let ch =
      Landmark_churn.create ~rng:pop ~params:Params.default ~hysteresis:true ~n0:n
    in
    let flipped = ref None in
    for step = 1 to sc.Scenario.churn_steps do
      let f = 0.75 +. Rng.float sched 0.58 in
      let n' = max 4 (int_of_float (Float.round (float_of_int n *. f))) in
      let flips = Landmark_churn.observe ch ~n:n' in
      if flips > 0 && !flipped = None then flipped := Some (step, n', flips)
    done;
    match !flipped with
    | Some (step, n', flips) ->
        violations :=
          {
            Violation.scheme = "landmark-churn";
            kind =
              Violation.Churn_violation
                {
                  detail =
                    Printf.sprintf
                      "%d flips at step %d (n %d -> %d, inside the sub-2x band)"
                      flips step n n';
                };
          }
          :: !violations
    | None -> ()
  end

let run ?routers ?(spec_of = Spec.find) (sc : Scenario.t) =
  let routers = match routers with Some r -> r | None -> Routers.all () in
  let g = Scenario.graph sc in
  let n = Graph.n g in
  let pairs = Scenario.draw_pairs sc g in
  let tb = Testbed.of_graph ~seed:sc.Scenario.seed g in
  let violations = ref [] in
  (* Second world, built from nothing but the scenario: everything the
     first build produced must reproduce bit-for-bit. *)
  let g' = Scenario.graph sc in
  if Graph.edges g <> Graph.edges g' then
    violations :=
      { Violation.scheme = "scenario"; kind = Violation.Nondeterministic { what = "topology" } }
      :: !violations;
  let pairs' = Scenario.draw_pairs sc g' in
  if pairs <> pairs' then
    violations :=
      { Violation.scheme = "scenario"; kind = Violation.Nondeterministic { what = "workload" } }
      :: !violations;
  let tb' = Testbed.of_graph ~seed:sc.Scenario.seed g' in
  let covered = coverage (Testbed.nd tb) in
  let dists = oracle_distances g pairs in
  let route_failures = ref 0 in
  let measured =
    List.map
      (fun packed ->
        let scheme = Protocol.name_of packed in
        let spec = spec_of scheme in
        let m = measure packed tb pairs in
        let m' = measure packed tb' pairs in
        List.iter2
          (fun pr dist ->
            let count_failure (tr : Dataplane.trace) =
              if (not tr.Dataplane.delivered) && not spec.Spec.guaranteed_delivery then
                incr route_failures
            in
            count_failure pr.walk_first;
            count_failure pr.walk_later;
            check_phase ~violations ~scheme ~spec ~covered g ~phase:"first" ~dist pr
              pr.walk_first ~fallback:pr.first_fallback;
            check_phase ~violations ~scheme ~spec ~covered g ~phase:"later" ~dist pr
              pr.walk_later ~fallback:false;
            match pr.oracle with
            | None -> ()
            | Some (first, later) ->
                check_walk ~violations ~scheme g ~phase:"first" pr ~oracle_route:first
                  pr.walk_first;
                check_walk ~violations ~scheme g ~phase:"later" pr ~oracle_route:later
                  pr.walk_later)
          m.results dists;
        check_states ~violations ~scheme ~spec ~n m.states;
        check_determinism ~violations ~scheme m m';
        check_fastpath ~violations ~scheme packed tb m;
        (scheme, m))
      routers
  in
  (match (List.assoc_opt "disco" measured, List.assoc_opt "nddisco" measured) with
  | Some d, Some x -> check_differential ~violations d x
  | _ -> ());
  check_churn ~violations sc ~n;
  {
    n;
    pairs_checked = List.length pairs;
    schemes = List.map fst measured;
    route_failures = !route_failures;
    violations = List.rev !violations;
  }
