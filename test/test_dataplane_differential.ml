(* Walk ≡ oracle, for every registered scheme that keeps a closed-form
   route (disco, nddisco, s4), across topology families and seeds: the
   hop-by-hop data plane must deliver wherever the oracle routes, on the
   oracle's weighted length (its shortcuts may divert at a
   different-but-equivalent point). *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module D = Disco_core.Dataplane
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Walk = Disco_experiments.Walk

let pairs_per_world = 40

let check_pair (module R : Protocol.ROUTER) ~g ~phase ~oracle (tr : D.trace)
    ~src ~dst =
  let ctx = Printf.sprintf "%s %s %d->%d" R.name phase src dst in
  (match tr.D.dropped with
  | Some (D.Protocol_error e) -> Alcotest.failf "%s: protocol error: %s" ctx e
  | _ -> ());
  if not tr.D.delivered then Alcotest.failf "%s: oracle routes, walk dropped" ctx;
  Helpers.check_path g ~src ~dst tr.D.path;
  let lw = Helpers.path_len g tr.D.path and lo = Helpers.path_len g oracle in
  if Float.abs (lw -. lo) > 1e-6 then
    Alcotest.failf "%s: walk length %.6f, oracle length %.6f" ctx lw lo

let check_world kind seed () =
  let tb = Testbed.make ~seed kind ~n:64 in
  let g = tb.Testbed.graph in
  let n = Graph.n g in
  let rng = Rng.create (seed + 1000) in
  let worklist =
    List.init pairs_per_world (fun _ -> (Rng.int rng n, Rng.int rng n))
    |> List.filter (fun (s, t) -> s <> t)
  in
  let checked = ref 0 in
  List.iter
    (fun packed ->
      let module R = (val packed : Protocol.ROUTER) in
      match R.oracle with
      | None -> ()
      | Some oracle ->
          let rt = R.build tb in
          let tel = Telemetry.create () in
          List.iter
            (fun (src, dst) ->
              let first, later = oracle rt ~src ~dst in
              check_pair (module R) ~g ~phase:"first" ~oracle:first
                (Walk.first_trace (module R) rt ~tel ~graph:g ~src ~dst)
                ~src ~dst;
              check_pair (module R) ~g ~phase:"later" ~oracle:later
                (Walk.later_trace (module R) rt ~tel ~graph:g ~src ~dst)
                ~src ~dst;
              incr checked)
            worklist;
          (* The walker genuinely ran this scheme's data plane. *)
          if tel.Telemetry.packets_walked = 0 then
            Alcotest.failf "%s: no packet walked" R.name)
    (Routers.all ());
  if !checked = 0 then Alcotest.fail "no scheme with an oracle checked any pair"

let suite =
  List.concat_map
    (fun kind ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "walk = oracle on %s seed %d" (Gen.kind_name kind)
               seed)
            `Quick (check_world kind seed))
        [ 3; 11 ])
    [ Gen.Gnm; Gen.Geometric; Gen.As_level ]
