(* control and policy: control-plane state and operator-chosen landmarks. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Stats = Disco_util.Stats
module Core = Disco_core

(* control: Theorem 2 — control-plane state is O(delta sqrt(n log n))
   under plain path vector but O(sqrt(n log n)) with forgetful routing. *)
let control (cfg : Engine.config) =
  let { Engine.seed; scale; tel; _ } = cfg in
  let n = match scale with Scale.Small -> 4096 | Scale.Paper -> 16384 in
  Report.section
    (Printf.sprintf "control: control-plane state, plain vs forgetful routing; router-level n=%d" n);
  let tb = Testbed.make ~seed Gen.Router_level ~n in
  let nd = Testbed.nd tb in
  let data_entries v =
    Core.Nddisco.total_entries (Core.Nddisco.state_entries nd v)
  in
  let plain =
    Array.init n (fun v ->
        float_of_int (Graph.degree tb.Testbed.graph v * data_entries v))
  in
  let forgetful = Array.init n (fun v -> float_of_int (data_entries v)) in
  Report.summary_line ~label:"plain path vector (delta x entries)" plain;
  Report.summary_line ~label:"forgetful routing" forgetful;
  (* Measured, not modeled: run the dynamic protocol and count the
     adjacency-RIB entries a non-forgetful implementation would retain. *)
  let mn = 1024 in
  let rng = Rng.create (seed * 37) in
  let graph = Gen.gnm ~rng ~n:mn ~m:(4 * mn) in
  let dnd = Core.Nddisco.build ~rng graph in
  let flags = dnd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark in
  let k = Core.Params.vicinity_size Core.Params.default ~n:mn in
  let r =
    Disco_pathvector.Pathvector.run ~telemetry:tel ~graph
      ~mode:(Disco_pathvector.Pathvector.Landmarks_and_k_closest { landmarks = flags; k })
      ()
  in
  Printf.printf " measured on the event simulator (G(n,m), n=%d):\n" mn;
  Report.summary_line ~label:"adjacency RIB (non-forgetful)"
    (Array.map float_of_int r.Disco_pathvector.Pathvector.adj_rib_entries);
  Report.summary_line ~label:"best routes only (forgetful)"
    (Array.map float_of_int (Disco_pathvector.Pathvector.table_sizes r))

(* policy: §6 — operators may choose landmarks non-randomly as long as
   there are O~(sqrt n) of them and every vicinity contains one. Compare
   random landmarks with degree-based selection on the AS-like topology. *)
let policy (cfg : Engine.config) =
  let { Engine.seed; tel; jobs; _ } = cfg in
  Report.section "policy: random vs operator-chosen (highest-degree) landmarks";
  let n = 2048 in
  let rng = Rng.create (seed * 17) in
  let graph = Gen.by_kind ~rng Gen.As_level ~n in
  let expected = Core.Params.vicinity_size Core.Params.default ~n in
  let by_degree =
    let nodes = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare (Graph.degree graph b) (Graph.degree graph a)) nodes;
    Array.sub nodes 0 expected
  in
  let measure label landmark_ids =
    let nd = Core.Nddisco.build ?landmark_ids ~rng:(Rng.create (seed + 1)) graph in
    let disco = Core.Disco.of_nddisco ~rng:(Rng.create (seed + 2)) nd in
    let pair_rng = Rng.create (seed + 3) in
    let stretches =
      Engine.map_pairs ~jobs ~tel ~dests_per_src:5 ~pairs:1000
        ~seed:(Rng.derive seed 3) pair_rng graph (fun ~src:s ~dst:t ~dist ->
          Engine.path_stretch graph ~dist
            (Core.Disco.route_first disco ~src:s ~dst:t))
    in
    let addr_bytes =
      Array.init n (fun v ->
          float_of_int (Core.Address.route_byte_size (Core.Nddisco.address nd v)))
    in
    Report.kv label
      (Printf.sprintf
         "landmarks=%d mean first stretch=%.3f mean address=%.2fB max address=%.0fB"
         (Core.Landmarks.count nd.Core.Nddisco.landmarks)
         (Stats.mean stretches)
         (Stats.mean addr_bytes)
         (Stats.summarize addr_bytes).Stats.max)
  in
  measure "random (the default)" None;
  measure "highest-degree" (Some by_degree)
