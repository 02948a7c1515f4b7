(* The ISSUE's determinism acceptance criterion: the parallel engine must be
   bit-identical to the sequential one. Same seed, jobs=1 vs jobs=4 —
   same samples in the same order, same merged telemetry, and equal
   Results JSON rows (with wall-clock dropped; elapsed_s is the one field
   allowed to differ).

   Since the engine queries routers through the shared walker, the
   telemetry equality below also pins the data plane's walker counters
   (packets walked, hops, rewrites, header bytes) across fork boundaries:
   forked handles may alias converged state, but per-packet walker
   scratch is local to each Walk call, so parallel walks can never bleed
   into each other's accounting. *)

module Gen = Disco_graph.Gen
module Telemetry = Disco_util.Telemetry
module Testbed = Disco_experiments.Testbed
module Engine = Disco_experiments.Engine
module Metrics = Disco_experiments.Metrics
module Routers = Disco_experiments.Routers
module Results = Disco_experiments.Results
module Harness = Disco_check.Harness
module Json = Disco_util.Json

let tb = lazy (Testbed.make ~seed:7 Gen.Gnm ~n:160)

let sample ~jobs =
  let tb = Lazy.force tb in
  Results.reset ();
  Results.set_figure "test-parallel";
  let tel = Telemetry.create () in
  let samples =
    Engine.sample_pairs ~pairs:200 ~dests_per_src:4 ~jobs ~tel
      ~routers:(Routers.all ()) tb
  in
  let drop_elapsed = function
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields)
    | v -> v
  in
  let json =
    match Json.parse (Results.to_json ()) with
    | Ok (Json.Arr rows) -> Json.to_string (Json.Arr (List.map drop_elapsed rows))
    | _ -> Alcotest.fail "Results JSON is not a parseable array"
  in
  Results.reset ();
  (samples, Telemetry.snapshot tel, json)

let test_sample_pairs_jobs_invariant () =
  let seq, seq_tel, seq_json = sample ~jobs:1 in
  List.iter
    (fun jobs ->
      let par, par_tel, par_json = sample ~jobs in
      let tag fmt = Printf.sprintf ("jobs=%d: " ^^ fmt) jobs in
      Alcotest.(check int) (tag "router count") (List.length seq) (List.length par);
      List.iter2
        (fun (s : Engine.sampled) (p : Engine.sampled) ->
          Alcotest.(check string) (tag "router order") s.Engine.router p.Engine.router;
          Alcotest.(check (array (float 0.0)))
            (tag "%s first samples" s.Engine.router)
            s.Engine.first p.Engine.first;
          Alcotest.(check (array (float 0.0)))
            (tag "%s later samples" s.Engine.router)
            s.Engine.later p.Engine.later;
          Alcotest.(check int) (tag "first failures") s.Engine.first_failures
            p.Engine.first_failures;
          Alcotest.(check int) (tag "later failures") s.Engine.later_failures
            p.Engine.later_failures;
          Alcotest.(check string)
            (tag "%s telemetry" s.Engine.router)
            (Telemetry.snapshot_to_string s.Engine.tel)
            (Telemetry.snapshot_to_string p.Engine.tel))
        seq par;
      Alcotest.(check string) (tag "merged telemetry")
        (Telemetry.snapshot_to_string seq_tel)
        (Telemetry.snapshot_to_string par_tel);
      Alcotest.(check string) (tag "Results JSON rows equal") seq_json par_json)
    [ 2; 4 ]

let test_map_groups_jobs_invariant () =
  let tb = Lazy.force tb in
  let graph = tb.Testbed.graph in
  let groups = [ (0, [ 3; 9; 17 ]); (5, [ 1; 2 ]); (12, [ 4; 8; 11; 30 ]) ]
  in
  let run ~jobs =
    let tel = Telemetry.create () in
    let out =
      Engine.map_groups ~jobs ~tel ~seed:99 graph groups
        (fun ~src ~dst ~dist -> (src, dst, dist))
    in
    (out, Telemetry.snapshot_to_string (Telemetry.snapshot tel))
  in
  let seq, seq_tel = run ~jobs:1 in
  let par, par_tel = run ~jobs:4 in
  Alcotest.(check int) "same sample count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (s, d, dist) ->
      let s', d', dist' = par.(i) in
      Alcotest.(check bool) "same visit in same position" true
        (s = s' && d = d' && Float.equal dist dist'))
    seq;
  Alcotest.(check string) "same telemetry" seq_tel par_tel

let test_metrics_stretch_jobs_invariant () =
  let tb = Lazy.force tb in
  let run ~jobs = Metrics.stretch ~jobs ~pairs:120 ~with_vrr:true tb in
  let seq = run ~jobs:1 and par = run ~jobs:4 in
  let check name (a : float array) (b : float array) =
    Alcotest.(check (array (float 0.0))) name a b
  in
  check "disco first" seq.Metrics.s_disco.Metrics.first par.Metrics.s_disco.Metrics.first;
  check "disco later" seq.Metrics.s_disco.Metrics.later par.Metrics.s_disco.Metrics.later;
  check "nddisco later" seq.Metrics.s_nddisco.Metrics.later par.Metrics.s_nddisco.Metrics.later;
  check "s4 first" seq.Metrics.s_s4.Metrics.first par.Metrics.s_s4.Metrics.first;
  (match (seq.Metrics.s_vrr, par.Metrics.s_vrr) with
  | Some a, Some b -> check "vrr" a b
  | None, None -> ()
  | _ -> Alcotest.fail "vrr presence differs across jobs")

let test_disco_check_jobs_invariant () =
  let run ~jobs = Harness.run_cases ~jobs ~run_seed:11 ~cases:6 ~max_nodes:40 () in
  Alcotest.(check string) "summary JSON byte-equal across jobs"
    (Harness.to_json (run ~jobs:1))
    (Harness.to_json (run ~jobs:4))

let suite =
  [
    Alcotest.test_case "sample_pairs: jobs 1 = jobs 2 = jobs 4" `Slow
      test_sample_pairs_jobs_invariant;
    Alcotest.test_case "map_groups: jobs 1 = jobs 4" `Quick
      test_map_groups_jobs_invariant;
    Alcotest.test_case "Metrics.stretch: jobs 1 = jobs 4" `Slow
      test_metrics_stretch_jobs_invariant;
    Alcotest.test_case "disco-check harness: jobs 1 = jobs 4" `Slow
      test_disco_check_jobs_invariant;
  ]
