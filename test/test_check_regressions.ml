(* Counterexamples disco-check found on main, pinned by exact seed.

   The first sweep (disco-check --seed 7 --cases 10 --max-nodes 64)
   convicted S4 on eight scenarios: its first packet was held to the TZ
   stretch-3 bound, but S4 resolves flat names through the consistent-
   hashing resolution database, so the first packet detours via the hash
   owner and its stretch is unbounded (s4.mli, §5 of the paper). The fix
   was to the invariant catalog — S4's first_bound is None; stretch 3
   applies to route_later only.

   These scenarios pin both directions of that fix, replayed from the
   exact shrunk seeds the checker reported:
   - under the corrected catalog they pass (and must stay passing);
   - under the original, miscalibrated catalog the checker still convicts
     S4 with the very stretch values observed (4.0, 5.0, 4.33), proving a
     future bound drift of this class cannot slip through. *)

module Scenario = Disco_check.Scenario
module Spec = Disco_check.Spec
module Runner = Disco_check.Runner
module Violation = Disco_check.Violation
module Harness = Disco_check.Harness
module Protocol = Disco_experiments.Protocol
module Routers = Disco_experiments.Routers
module Testbed = Disco_experiments.Testbed
module Graph = Disco_graph.Graph

let scenario_exn desc =
  match Scenario.of_string desc with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "bad pinned scenario %S: %s" desc e

(* Shrunk counterexamples as reported by disco-check --seed 7 --cases 10. *)
let pinned =
  [
    "seed=1150299863866387076,family=gnm,n=16,pairs=16,workload=uniform,churn=0";
    "seed=1512986910920847295,family=gnm,n=16,pairs=4,workload=uniform,churn=0";
    "seed=619157119472769496,family=ring,n=16,pairs=7,workload=uniform,churn=0";
    "seed=1905278406105126106,family=geometric,n=17,pairs=6,workload=uniform,churn=0";
  ]

let test_pinned_scenarios_pass () =
  List.iter
    (fun desc ->
      let outcome = Runner.run (scenario_exn desc) in
      if Runner.failed outcome then
        Alcotest.failf "pinned scenario regressed: %s\n%s" desc
          (String.concat "\n"
             (List.map Violation.describe outcome.Runner.violations)))
    pinned

(* The catalog bug as it originally shipped: S4's first packet wrongly
   held to stretch 3. *)
let miscalibrated s =
  let spec = Spec.find s in
  if String.equal s "s4" then { spec with Spec.first_bound = Some 3.0 } else spec

let test_miscalibrated_bound_is_convicted () =
  let sc =
    scenario_exn "seed=1512986910920847295,family=gnm,n=16,pairs=4,workload=uniform,churn=0"
  in
  let outcome = Runner.run ~spec_of:miscalibrated sc in
  let s4_first_violation =
    List.exists
      (fun v ->
        String.equal v.Violation.scheme "s4"
        &&
        match v.Violation.kind with
        | Violation.Stretch_exceeded { phase; stretch; bound; _ } ->
            String.equal phase "first" && bound = 3.0 && stretch > 3.0
        | _ -> false)
      outcome.Runner.violations
  in
  Alcotest.(check bool) "s4 first-packet stretch > 3 detected" true
    s4_first_violation

(* --- fast≡typed differential regressions ---------------------------------

   The fastpath differential (run for every scheme) re-routes every
   sampled pair through the wire codec and the compiled forward and
   demands the typed walk's exact hop sequence and verdict.  Pinned both ways, like the S4
   bound above: scenarios that exercise the differential on the real
   registry stay green, and a router whose compiled face diverges from
   its typed forward is convicted, shrunk, and the shrunk scenario is
   pinned by its exact textual form. *)

(* Scenarios replayed on the full registry, so each of these runs the
   differential across all eight schemes (families chosen to reach
   seek/steer/resolution modes). *)
let pinned_fastpath =
  [
    "seed=1150299863866387076,family=gnm,n=16,pairs=16,workload=uniform,churn=0";
    "seed=1905278406105126106,family=geometric,n=17,pairs=6,workload=uniform,churn=0";
  ]

let test_pinned_fastpath_green () =
  List.iter
    (fun desc ->
      let outcome = Runner.run (scenario_exn desc) in
      if Runner.failed outcome then
        Alcotest.failf "pinned fastpath scenario regressed: %s\n%s" desc
          (String.concat "\n"
             (List.map Violation.describe outcome.Runner.violations)))
    pinned_fastpath

(* An honest typed carry router whose compiled face drops the final
   label: the fast walk stops one hop short of every delivery.  Only the
   fastpath differential can see this — delivery, stretch and walk checks
   all pass. *)
module Lame_fast_router = struct
  module D = Disco_core.Dataplane

  type t = Disco_core.Landmark_trees.t

  let name = "lamefast"
  let flat_names = "test fixture"
  let build = Testbed.trees

  let shortest t ~src ~dst =
    if Disco_core.Landmark_trees.dist t ~lm:src dst = infinity then None
    else Some (Disco_core.Landmark_trees.path_from t ~lm:src dst)

  let oracle = None
  let ttl_factor = 4

  let header_of ~dst = function
    | Some (_ :: rest) -> { (D.plain ~dst D.Carry) with D.labels = rest }
    | _ -> D.plain ~dst D.Carry

  let first_header t ~tel:_ ~src ~dst = header_of ~dst (shortest t ~src ~dst)
  let later_header t ~tel:_ ~src ~dst = header_of ~dst (shortest t ~src ~dst)

  let forward _ (h : D.header) ~at:u =
    match h.D.labels with
    | next :: rest -> D.Rewrite ({ h with D.labels = rest }, next, D.Label_hop)
    | [] -> if u = h.D.dst then D.Deliver else D.Drop D.No_route

  let state_entries _ _ = 0
  let state_bytes _ _ = 0.0

  let compile _t =
    {
      D.fstep =
        (fun (pkt : D.packet) u ->
          if D.route_len pkt > 1 then D.route_next pkt
          else if u = pkt.D.pdst then D.fast_deliver
          else D.fast_no_route);
      D.fprime = (fun ~src:_ ~dst:_ -> ());
    }
end

let lame_routers () =
  [
    Routers.find_exn "pathvector";
    (module Lame_fast_router : Protocol.ROUTER);
  ]

(* The shrunk counterexample the harness reports for run_seed 11 — the
   smallest scenario the shrinker reaches must stay put, so the
   differential's shrinking path is covered end to end. *)
let pinned_lame_shrunk =
  "seed=1458419845239409703,family=gnm,n=16,pairs=1,workload=uniform,churn=0"

let test_divergent_compile_convicted () =
  let routers = lame_routers () in
  let s = Harness.run_cases ~routers ~run_seed:11 ~cases:3 ~max_nodes:32 () in
  Alcotest.(check bool) "run fails" false (Harness.passed s);
  let cx =
    match s.Harness.counterexamples with
    | [] -> Alcotest.fail "no counterexample reported"
    | cx :: _ -> cx
  in
  List.iter
    (fun v ->
      Alcotest.(check string) "convicted scheme" "lamefast" v.Violation.scheme;
      match v.Violation.kind with
      | Violation.Fastpath_divergence _ -> ()
      | k ->
          Alcotest.failf "unexpected violation kind %s"
            (Violation.describe { v with Violation.kind = k }))
    cx.Harness.violations;
  Alcotest.(check string) "shrunk scenario pinned" pinned_lame_shrunk
    (Scenario.to_string cx.Harness.minimized)

let test_pinned_lame_shrunk_still_fails () =
  let outcome = Runner.run ~routers:(lame_routers ()) (scenario_exn pinned_lame_shrunk) in
  Alcotest.(check bool) "pinned shrunk scenario convicts" true
    (Runner.failed outcome);
  Alcotest.(check bool) "as a fastpath divergence" true
    (List.exists
       (fun v ->
         match v.Violation.kind with
         | Violation.Fastpath_divergence _ ->
             String.equal v.Violation.scheme "lamefast"
         | _ -> false)
       outcome.Runner.violations);
  (* The honest registry passes the very same scenario. *)
  let clean = Runner.run (scenario_exn pinned_lame_shrunk) in
  Alcotest.(check bool) "registry clean on the same scenario" false
    (Runner.failed clean)

let suite =
  [
    Alcotest.test_case "pinned scenarios stay green" `Quick test_pinned_scenarios_pass;
    Alcotest.test_case "miscalibrated S4 bound convicted" `Quick
      test_miscalibrated_bound_is_convicted;
    Alcotest.test_case "pinned fastpath scenarios stay green" `Quick
      test_pinned_fastpath_green;
    Alcotest.test_case "divergent compile convicted and shrunk" `Quick
      test_divergent_compile_convicted;
    Alcotest.test_case "pinned shrunk fastpath scenario" `Quick
      test_pinned_lame_shrunk_still_fails;
  ]
