module Json = Disco_util.Json

type counterexample = {
  original : Scenario.t;
  minimized : Scenario.t;
  shrink_runs : int;
  violations : Violation.t list;
}

type summary = {
  run_seed : int;
  cases : int;
  max_nodes : int;
  schemes : string list;
  total_pairs : int;
  total_route_failures : int;
  counterexamples : counterexample list;
}

let passed s = s.counterexamples = []

let shrink_failure ?routers ?spec_of sc =
  let still_fails c = Runner.failed (Runner.run ?routers ?spec_of c) in
  let minimized, shrink_runs = Shrink.minimize ~still_fails sc in
  let final = Runner.run ?routers ?spec_of minimized in
  { original = sc; minimized; shrink_runs; violations = final.Runner.violations }

let check_scenario ?routers sc =
  let outcome = Runner.run ?routers sc in
  if Runner.failed outcome then Some (shrink_failure ?routers sc)
  else None

(* disco-lint: allow L10 ?spec_of is the seam by which test_check's "broken router caught and shrunk" enters its fixture spec *)
let run_cases ?routers ?spec_of ?on_case ?(jobs = 1) ~run_seed
    ~cases ~max_nodes () =
  (* Each case is fully determined by (run_seed, case, max_nodes) — routers
     are rebuilt per scenario — so the sweep parallelizes by case with no
     shared state. Shrinking happens inside the task (it only reruns the
     task's own scenario); outcomes are merged and [on_case] fired in case
     order afterwards, so the summary is identical for every [jobs]. *)
  let exec case =
    let sc = Scenario.generate ~run_seed ~case ~max_nodes in
    let outcome = Runner.run ?routers ?spec_of sc in
    let cx =
      if Runner.failed outcome then
        Some (shrink_failure ?routers ?spec_of sc)
      else None
    in
    (outcome, cx)
  in
  let indices = Array.init cases Fun.id in
  let outcomes =
    if jobs > 1 && cases > 1 then
      Disco_util.Pool.with_pool ~jobs (fun p -> Disco_util.Pool.run p indices exec)
    else
      (* Sequential path: interleave [on_case] with the work so progress
         output stays live on long single-job runs. *)
      Array.map
        (fun case ->
          let ((_, cx) as r) = exec case in
          (match on_case with Some f -> f ~case ~failed:(cx <> None) | None -> ());
          r)
        indices
  in
  if jobs > 1 && cases > 1 then
    Array.iteri
      (fun case (_, cx) ->
        match on_case with Some f -> f ~case ~failed:(cx <> None) | None -> ())
      outcomes;
  let schemes =
    match outcomes with
    | [||] -> []
    | _ -> (fst outcomes.(0)).Runner.schemes
  in
  let total_pairs =
    Array.fold_left (fun acc (o, _) -> acc + o.Runner.pairs_checked) 0 outcomes
  in
  let total_route_failures =
    Array.fold_left (fun acc (o, _) -> acc + o.Runner.route_failures) 0 outcomes
  in
  let counterexamples =
    Array.to_list outcomes |> List.filter_map (fun (_, cx) -> cx)
  in
  {
    run_seed;
    cases;
    max_nodes;
    schemes;
    total_pairs;
    total_route_failures;
    counterexamples;
  }

let report s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "disco-check: seed=%d cases=%d max-nodes=%d\n" s.run_seed s.cases
       s.max_nodes);
  Buffer.add_string b
    (Printf.sprintf "schemes: %s\n" (String.concat ", " s.schemes));
  Buffer.add_string b
    (Printf.sprintf "pairs checked: %d (legal route failures on greedy schemes: %d)\n"
       s.total_pairs s.total_route_failures);
  if passed s then Buffer.add_string b "PASS: no invariant violations\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "FAIL: %d counterexample(s)\n" (List.length s.counterexamples));
    List.iteri
      (fun i cx ->
        Buffer.add_string b (Printf.sprintf "counterexample %d:\n" (i + 1));
        Buffer.add_string b
          (Printf.sprintf "  original:  %s\n" (Scenario.to_string cx.original));
        Buffer.add_string b
          (Printf.sprintf "  minimized: %s (%d shrink runs)\n"
             (Scenario.to_string cx.minimized) cx.shrink_runs);
        List.iter
          (fun v -> Buffer.add_string b (Printf.sprintf "  - %s\n" (Violation.describe v)))
          cx.violations;
        Buffer.add_string b
          (Printf.sprintf "  replay: %s\n" (Scenario.replay_command cx.minimized)))
      s.counterexamples
  end;
  Buffer.contents b

let counterexample_to_json cx =
  Json.Obj
    [
      ("original", Scenario.to_json cx.original);
      ("minimized", Scenario.to_json cx.minimized);
      ("shrink_runs", Json.Int cx.shrink_runs);
      ("replay", Json.Str (Scenario.to_string cx.minimized));
      ("violations", Json.Arr (List.map Violation.to_json cx.violations));
    ]

let to_json s =
  Json.to_string
    (Json.Obj
       [
         ("run_seed", Json.Int s.run_seed);
         ("cases", Json.Int s.cases);
         ("max_nodes", Json.Int s.max_nodes);
         ("schemes", Json.Arr (List.map (fun n -> Json.Str n) s.schemes));
         ("total_pairs", Json.Int s.total_pairs);
         ("total_route_failures", Json.Int s.total_route_failures);
         ("passed", Json.Bool (passed s));
         ("counterexamples", Json.Arr (List.map counterexample_to_json s.counterexamples));
       ])
