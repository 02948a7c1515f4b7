(* Every metric the benchmark emits, with its unit.  BENCHMARK.json
   declares the same names (smoke.py checks that they agree).  Every
   workload emits every name: a layer a workload does not run reads 0
   there (README.md says which layer shows on which workload). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("first_pkts_per_s", "pkt/s");
    ("later_pkts_per_s", "pkt/s");
    ("first_pkt_us_p50", "us");
    ("first_pkt_us_p99", "us");
    ("later_pkt_us_p50", "us");
    ("later_pkt_us_p99", "us");
    ("delivered_frac", "ratio");
    ("stretch_first", "ratio");
    ("stretch_later", "ratio");
    ("state_bytes_per_node", "B");
    ("peak_rss_mb", "MB");
  ]

(* Registry order (Routers.names). *)
let schemes = [ "pathvector"; "seattle"; "bvr"; "vrr"; "s4"; "nddisco"; "disco"; "tz" ]

let per_scheme s =
  [
    ("build." ^ s ^ ".s", "s");
    ("compile." ^ s ^ ".s", "s");
    ("prime." ^ s ^ ".s", "s");
    ("walk." ^ s ^ ".pkts_per_s", "pkt/s");
    ("walk." ^ s ^ ".ns_per_hop", "ns");
    ("walk." ^ s ^ ".delivered_frac", "ratio");
    ("state." ^ s ^ ".bytes_per_node", "B");
  ]

let per_layer =
  [
    ("gen.s", "s");
    ("graph.edges", "count");
    ("nddisco.build_s", "s");
    ("landmarks.count", "count");
    ("vicinity.precompute_s", "s");
    ("vicinity.views", "count");
    ("vicinity.k", "count");
    ("groups.build_s", "s");
    ("overlay.build_s", "s");
    ("resolution.build_s", "s");
    ("othello.build_s", "s");
    ("compile.s", "s");
    ("prime.s", "s");
    ("landmark_trees.forced", "count");
    ("header.first_s", "s");
    ("header.later_s", "s");
    ("encode.s", "s");
    ("encode.bytes_per_pkt.first", "B");
    ("encode.bytes_per_pkt.later", "B");
    ("decode.ns_per_pkt", "ns");
    ("seek.case.direct_vicinity", "ratio");
    ("seek.case.direct_landmark", "ratio");
    ("seek.case.known_address", "ratio");
    ("seek.case.via_group_member", "ratio");
    ("seek.case.resolution_fallback", "ratio");
    ("walk.ns_per_hop.first", "ns");
    ("walk.ns_per_hop.later", "ns");
    ("walk.hops_per_pkt.first", "hop");
    ("walk.hops_per_pkt.later", "hop");
    ("walk.words_per_hop", "words/hop");
    ("walk.drop.ttl", "ratio");
    ("walk.drop.no_route", "ratio");
    ("walk.drop.protocol", "ratio");
    ("testbed.shared_s", "s");
  ]
  @ List.concat_map per_scheme schemes
  @ [
      ("network.cold_s", "s");
      ("network.repair_s", "s");
      ("network.msgs_cold", "count");
      ("network.msgs_repair", "count");
      ("network.reach_at_failure", "ratio");
      ("network.table_entries_mean", "count");
      ("network.landmarks", "count");
      ("sim_msgs_per_s", "msg/s");
      ("repair_sim_s", "s");
      ("control_msgs", "count");
      ("dijkstra.oracle_s", "s");
      ("typed.check_s", "s");
      ("typed.mismatches", "count");
      ("trace.setup_covered_frac", "ratio");
    ]
