(* fig9 and the TZ tradeoff sweep: how stretch and state scale. *)

module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Stats = Disco_util.Stats
module Dataplane = Disco_core.Dataplane
module Tz = Disco_baselines.Tz_hierarchy

(* fig9: mean stretch and mean state as n grows (geometric graphs). *)
let fig9 (cfg : Engine.config) =
  let { Engine.seed; scale; jobs; _ } = cfg in
  Report.section "fig9: scaling on geometric graphs (mean stretch, mean state)";
  let sizes =
    match scale with
    | Scale.Small -> [ 1024; 2048; 4096 ]
    | Scale.Paper -> [ 2048; 4096; 8192; 16384 ]
  in
  List.iter
    (fun n ->
      let tb = Testbed.make ~seed Gen.Geometric ~n in
      let sr = Metrics.stretch ~pairs:800 ~jobs tb in
      let st = Metrics.state tb in
      let x = float_of_int n in
      Report.series_point ~label:"fig9.stretch.disco-first" ~x
        ~y:(Stats.mean sr.Metrics.s_disco.Metrics.first);
      Report.series_point ~label:"fig9.stretch.disco-later" ~x
        ~y:(Stats.mean sr.Metrics.s_disco.Metrics.later);
      Report.series_point ~label:"fig9.stretch.s4-first" ~x
        ~y:(Stats.mean sr.Metrics.s_s4.Metrics.first);
      Report.series_point ~label:"fig9.stretch.s4-later" ~x
        ~y:(Stats.mean sr.Metrics.s_s4.Metrics.later);
      Report.series_point ~label:"fig9.state.disco" ~x ~y:(Stats.mean st.Metrics.disco);
      Report.series_point ~label:"fig9.state.nddisco" ~x
        ~y:(Stats.mean st.Metrics.nddisco);
      Report.series_point ~label:"fig9.state.s4" ~x ~y:(Stats.mean st.Metrics.s4))
    sizes

(* tradeoff: §6's open question — other points on the state/stretch curve,
   via the generalized TZ hierarchy (k levels: stretch <= 2k-1, state
   O~(n^{1/k})). *)
let tradeoff (cfg : Engine.config) =
  let { Engine.seed; scale; tel; jobs } = cfg in
  let n = match scale with Scale.Small -> 1024 | Scale.Paper -> 4096 in
  Report.section
    (Printf.sprintf "tradeoff: TZ hierarchy, stretch vs state; G(n,m) n=%d" n);
  let rng = Rng.create (seed * 29) in
  let graph = Gen.gnm ~rng ~n ~m:(4 * n) in
  let pair_rng = Rng.create (seed + 9) in
  (* One draw for every k: the rows compare hierarchies on identical
     pairs. *)
  let groups = Engine.draw_pairs ~dests_per_src:5 pair_rng ~n ~pairs:500 in
  (* One tree memo for every k: a pivot's tree depends only on the graph.
     No root is pinned; the memo keeps the pivots in recent use. *)
  let trees = Disco_core.Landmark_trees.create graph ~pinned:(Array.make n false) in
  let rows =
    List.map
      (fun k ->
        let tz = Tz.build ~rng:(Rng.create (seed + k)) ~k ~trees in
        let states = Array.init n (fun v -> float_of_int (Tz.state tz v)) in
        let stretches =
          Engine.map_groups ~jobs ~tel ~seed:(Rng.derive seed (90 + k)) graph
            groups (fun ~src:s ~dst:t ~dist ->
              match
                Walk.path_of
                  (Dataplane.walk ~ttl:(Tz.ttl_factor * n) graph ~forward:(Tz.forward tz)
                     ~src:s (Tz.packet_header tz ~src:s ~dst:t))
              with
              | Some path -> Engine.path_stretch graph ~dist path
              | None -> infinity)
        in
        let st = Stats.summarize states in
        let sr = Stats.summarize stretches in
        [
          string_of_int k;
          Printf.sprintf "%.0f" (Tz.stretch_bound tz);
          Printf.sprintf "%.3f" sr.Stats.mean;
          Printf.sprintf "%.3f" sr.Stats.max;
          Printf.sprintf "%.0f" st.Stats.mean;
          Printf.sprintf "%.0f" st.Stats.max;
        ])
      [ 2; 3; 4 ]
  in
  let k1_row =
    (* k = 1 is plain shortest-path state; no need to materialize n^2
       bunch entries to report it. *)
    [ "1"; "1"; "1.000"; "1.000"; string_of_int (n - 1); string_of_int (n - 1) ]
  in
  Report.table
    ~header:[ "k"; "bound 2k-1"; "stretch-mean"; "stretch-max"; "state-mean"; "state-max" ]
    (k1_row :: rows)
