(* Test runner: all suites, grouped per module. *)

let () =
  Alcotest.run "disco"
    [
      ("rng", Test_rng.suite);
      ("bits", Test_bits.suite);
      ("heap", Test_heap.suite);
      ("union-find", Test_union_find.suite);
      ("json", Test_json.suite);
      ("packed", Test_packed.suite);
      ("stats", Test_stats.suite);
      ("sha256", Test_sha256.suite);
      ("hashing", Test_hashing.suite);
      ("graph", Test_graph.suite);
      ("dijkstra", Test_dijkstra.suite);
      ("generators", Test_gen.suite);
      ("graph-io", Test_graph_io.suite);
      ("sim", Test_sim.suite);
      ("pathvector", Test_pathvector.suite);
      ("synopsis", Test_synopsis.suite);
      ("params", Test_params.suite);
      ("address", Test_address.suite);
      ("landmarks", Test_landmarks.suite);
      ("vicinity", Test_vicinity.suite);
      ("shortcut", Test_shortcut.suite);
      ("nddisco", Test_nddisco.suite);
      ("tree-address", Test_tree_address.suite);
      ("landmark-churn", Test_landmark_churn.suite);
      ("landmark-coverage", Test_coverage.suite);
      ("groups", Test_groups.suite);
      ("overlay", Test_overlay.suite);
      ("resolution", Test_resolution.suite);
      ("disco-core", Test_disco_core.suite);
      ("dataplane", Test_dataplane.suite);
      ("forwarding", Test_forwarding.suite);
      ("dataplane-differential", Test_dataplane_differential.suite);
      ("header", Test_header.suite);
      ("wire-codec", Test_wire_codec.suite);
      ("s4", Test_s4.suite);
      ("vrr", Test_vrr.suite);
      ("tz-hierarchy", Test_tz_hierarchy.suite);
      ("bvr-seattle", Test_bvr_seattle.suite);
      ("integration", Test_integration.suite);
      ("dynamic", Test_dynamic.suite);
      ("pool", Test_pool.suite);
      ("experiments", Test_experiments.suite);
      ("engine-parallel", Test_engine_parallel.suite);
      ("router-registry", Test_router_registry.suite);
      ("disco-check", Test_check.suite);
      ("disco-check-regressions", Test_check_regressions.suite);
      ("lint", Test_lint.suite);
      ("lint-typed", Test_lint_typed.suite);
    ]
