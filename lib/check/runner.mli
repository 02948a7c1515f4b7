(** Execute one scenario against every router and collect invariant
    violations.

    For each scheme the runner builds converged state over the scenario's
    testbed, walks the scenario's workload hop by hop through the scheme's
    data plane, and checks:

    - every delivered walk is a real path from src to dst in the graph;
    - delivery, for schemes that guarantee it (the graph is connected);
    - stretch against a full-Dijkstra oracle: never below 1, and within
      the scheme's bound whenever its preconditions hold (coverage for
      Disco/NDDisco, non-fallback pairs for Disco's first packet);
    - a walker {!Disco_core.Dataplane.Protocol_error} — non-neighbor hop,
      misdelivery, refused header — is always a violation. The walker
      itself enforces TTL-bounded loop-free progress and that [forward]
      sees nothing but the header and the deciding node;
    - walk ≡ oracle, for the schemes whose
      {!Disco_experiments.Protocol.ROUTER.oracle} is [Some] (disco,
      nddisco, s4): the walk must deliver, with the oracle's weighted
      length;
    - per-node state within the scheme's bound, never negative;
    - bit-exact determinism: a second build from the same scenario must
      reproduce the topology, every oracle route, every walk, every state
      table and the full telemetry snapshot (including the walk counters);
    - the differential invariant that Disco's post-handshake oracle
      routes equal NDDisco's (Disco §4.3 delegates forwarding to NDDisco
      over its own addresses);
    - landmark-churn hysteresis: a size schedule confined to a
      sub-factor-2 band must produce zero status flips.

    [routers] and [spec_of] default to the global registry and
    {!Spec.find}; tests override them to check a deliberately broken
    router without polluting the registry. *)

type outcome = {
  n : int;  (** actual node count of the materialized graph *)
  pairs_checked : int;
  schemes : string list;  (** schemes that ran, in order *)
  route_failures : int;  (** legal undelivered walks on non-guaranteed schemes *)
  violations : Violation.t list;
}

val run :
  ?routers:Disco_experiments.Protocol.packed list ->
  ?spec_of:(string -> Spec.t) ->
  Scenario.t ->
  outcome

val failed : outcome -> bool

val coverage : Disco_core.Nddisco.t -> bool
(** Landmark-in-every-vicinity: the precondition under which the Disco and
    NDDisco stretch theorems hold deterministically (a node that is itself
    a landmark counts as covered). *)
