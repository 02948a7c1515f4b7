(** Virtual Ring Routing (Caesar et al., SIGCOMM 2006).

    VRR organizes nodes into a virtual ring ordered by (hashes of) their
    flat identifiers. Each node maintains a {e vset} of r virtual
    neighbors (r/2 successors, r/2 predecessors on the ring) and sets up a
    physical path to each; every node on such a path stores a routing
    entry (endpoints + next hops both ways). Packets are forwarded
    greedily to the stored endpoint whose identifier is virtually closest
    to the destination.

    The paper evaluates VRR with r = 4 and notes two failure modes Disco
    avoids (§3, §5): no bound on stretch, and — because path state lands on
    every intermediate node — routing state that can exceed even path
    vector at central nodes, in theory up to Θ(n²).

    Following §5.1, the converged state depends on join order: we join a
    random start node first and grow the joined component outward, each
    joiner establishing vset paths by VRR-routing through the state built
    so far (falling back to a physical shortest path only when greedy
    routing fails, e.g. for the very first pairs). After all joins,
    stale paths (pairs no longer ring-adjacent) are torn down. *)

type t

val build : rng:Disco_util.Rng.t -> Disco_graph.Graph.t -> t
(** Vsets of r = 4, as in the paper's evaluation, over the default
    names. *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (8, matching the TTL the build routes
    setup requests under — VRR corridors can wander well past the
    diameter). *)

val forward :
  t ->
  Disco_core.Dataplane.header ->
  at:int ->
  Disco_core.Dataplane.decision
(** One greedy step at node [at], consulting only its pset, its stored
    path entries and the header's committed endpoint/bound: the step the
    build takes when it routes setup requests, over the converged tables.
    The walk drops ([No_route]) where greedy stalls on a broken corridor
    — rare on connected graphs. *)

val packet_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The header a source emits: phase {!Dataplane.Greedy}, no commitment
    yet, the destination's virtual id as 8 payload bytes. *)

val state_entries : t -> int array
(** Routing entries per node: converged path entries through the node plus
    its physical-neighbor (pset) entries. *)

val state_bytes : t -> int -> float
(** Exact bytes of a node's slice of the packed slabs: its frozen
    (endpoint, next-hop) entry blocks at 32 bytes each, plus one word per
    vset member, per physical neighbor, and for its own virtual id. *)

val vset : t -> int -> int array
(** The node's converged virtual neighbors. *)

val setup_fallbacks : t -> int
(** Path setups that required the shortest-path fallback during join. *)

val ring_distance_ok : t -> bool
(** Sanity invariant for tests: every node's vset equals its true ring
    neighborhood. *)

(** {2 Compiled fast path} *)

type fast
(** Virtual ids as unsigned 32-bit halves over the same frozen CSR entry
    slabs the typed face reads (shared, not copied), for the zero-alloc
    walker (no Int64 on the hop loop). *)

val compile : t -> fast
val fast_prime : fast -> src:int -> dst:int -> unit

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision, mirroring {!forward} exactly (same endpoint
    scan order, same committed-endpoint/monotone-bound discipline). *)
