(* Smoke coverage of the experiment harness on a tiny testbed: the metric
   collectors must be internally consistent (each protocol measured on the
   same topology, stretch >= 1, congestion counts conserve flows). *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Stats = Disco_util.Stats
module Testbed = Disco_experiments.Testbed
module Metrics = Disco_experiments.Metrics
module Messaging = Disco_experiments.Messaging
module Figures = Disco_experiments.Figures

let tb = lazy (Testbed.make ~seed:5 Gen.Gnm ~n:192)

let test_state_shapes () =
  let tb = Lazy.force tb in
  let st = Metrics.state ~with_vrr:true tb in
  let n = Graph.n tb.Testbed.graph in
  Alcotest.(check int) "disco rows" n (Array.length st.Metrics.disco);
  Alcotest.(check int) "s4 rows" n (Array.length st.Metrics.s4);
  Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.0)) st.Metrics.disco;
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "pv = n-1" (float_of_int (n - 1)) v)
    st.Metrics.pathvector;
  (* Disco state strictly contains NDDisco state. *)
  Array.iteri
    (fun i d -> Alcotest.(check bool) "disco >= nddisco" true (d >= st.Metrics.nddisco.(i)))
    st.Metrics.disco

let test_stretch_shapes () =
  let tb = Lazy.force tb in
  let sr = Metrics.stretch ~pairs:150 ~with_vrr:true tb in
  let check_series name (s : float array) =
    Alcotest.(check bool) (name ^ " nonempty") true (Array.length s > 0);
    Array.iter
      (fun v -> Alcotest.(check bool) (name ^ " >= 1") true (v >= 1.0 -. 1e-9))
      s
  in
  check_series "disco first" sr.Metrics.s_disco.Metrics.first;
  check_series "disco later" sr.Metrics.s_disco.Metrics.later;
  check_series "s4 later" sr.Metrics.s_s4.Metrics.later;
  (match sr.Metrics.s_vrr with
  | Some v -> check_series "vrr" v
  | None -> Alcotest.fail "vrr requested but absent");
  (* Later packets never do worse on average than first packets. *)
  Alcotest.(check bool) "disco later <= first (mean)" true
    (Stats.mean sr.Metrics.s_disco.Metrics.later
    <= Stats.mean sr.Metrics.s_disco.Metrics.first +. 1e-9)

let test_stretch_theorem_bounds_hold () =
  let tb = Lazy.force tb in
  let sr = Metrics.stretch ~pairs:150 tb in
  let max a = (Stats.summarize a).Stats.max in
  Alcotest.(check bool) "disco first <= 7" true (max sr.Metrics.s_disco.Metrics.first <= 7.0);
  Alcotest.(check bool) "disco later <= 3" true (max sr.Metrics.s_disco.Metrics.later <= 3.0);
  Alcotest.(check bool) "s4 later <= 3" true (max sr.Metrics.s_s4.Metrics.later <= 3.0)

let test_congestion_conservation () =
  let tb = Lazy.force tb in
  let c = Metrics.congestion tb in
  (* Total edge-uses = total route hops; each of the n flows contributes
     its hop count, so the totals must be positive and equal rows. *)
  let total a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check bool) "disco used edges" true (total c.Metrics.c_disco > 0.0);
  Alcotest.(check bool) "pv used edges" true (total c.Metrics.c_pathvector > 0.0);
  (* Shortest-path routing uses no more total hops than any protocol. *)
  Alcotest.(check bool) "pv total <= disco total" true
    (total c.Metrics.c_pathvector <= total c.Metrics.c_disco +. 1e-9)

let test_heuristic_table_ordering () =
  let tb = Lazy.force tb in
  let rows = Metrics.mean_stretch_by_heuristic ~pairs:100 tb in
  Alcotest.(check int) "six heuristics" 6 (List.length rows);
  let get h = List.assoc h rows in
  Alcotest.(check bool) "no-shortcut worst or equal" true
    (List.for_all (fun (_, v) -> v <= get Disco_core.Shortcut.No_shortcut +. 1e-9) rows);
  Alcotest.(check bool) "path-knowledge best or equal" true
    (List.for_all (fun (_, v) -> v >= get Disco_core.Shortcut.Path_knowledge -. 1e-9) rows)

let test_messaging_sweep () =
  let points = Messaging.sweep ~seed:3 ~pv_cap:96 ~sizes:[ 64; 96; 128 ] () in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun (p : Messaging.point) ->
      Alcotest.(check bool) "nddisco <= pathvector" true (p.Messaging.nddisco <= p.Messaging.pathvector);
      Alcotest.(check bool) "disco adds overhead" true (p.Messaging.disco_1f >= p.Messaging.nddisco);
      Alcotest.(check bool) "3 fingers >= 1 finger" true (p.Messaging.disco_3f >= p.Messaging.disco_1f))
    points;
  let last = List.nth points 2 in
  Alcotest.(check bool) "extrapolated point marked" true (not last.Messaging.pv_measured)

let test_overlay_comparison () =
  let stats = Messaging.overlay_comparison ~seed:3 ~n:256 () in
  match stats with
  | [ one; three ] ->
      Alcotest.(check int) "1 finger" 1 one.Messaging.fingers;
      Alcotest.(check int) "3 fingers" 3 three.Messaging.fingers;
      Alcotest.(check bool) "fewer hops with more fingers" true
        (three.Messaging.mean_announce_hops <= one.Messaging.mean_announce_hops);
      Alcotest.(check (float 1e-9)) "full coverage" 1.0 one.Messaging.coverage
  | _ -> Alcotest.fail "expected exactly two rows"

let test_figures_registry () =
  Alcotest.(check bool) "fig2 known" true (List.mem "fig2" Figures.all_ids);
  Alcotest.(check bool) "state known" true (List.mem "state" Figures.all_ids);
  Alcotest.(check int) "23 experiments" 23 (List.length Figures.all_ids);
  let parse = Disco_experiments.Scale.of_string in
  Alcotest.(check bool) "scale parse" true (parse "small" = Some Figures.Small);
  Alcotest.(check bool) "scale parse paper" true (parse "paper" = Some Figures.Paper);
  Alcotest.(check bool) "scale parse bad" true (parse "huge" = None)

let suite =
  [
    Alcotest.test_case "state shapes" `Quick test_state_shapes;
    Alcotest.test_case "stretch shapes" `Quick test_stretch_shapes;
    Alcotest.test_case "theorem bounds in harness" `Quick test_stretch_theorem_bounds_hold;
    Alcotest.test_case "congestion conservation" `Quick test_congestion_conservation;
    Alcotest.test_case "heuristic table ordering" `Quick test_heuristic_table_ordering;
    Alcotest.test_case "messaging sweep" `Slow test_messaging_sweep;
    Alcotest.test_case "overlay comparison" `Quick test_overlay_comparison;
    Alcotest.test_case "figures registry" `Quick test_figures_registry;
  ]
