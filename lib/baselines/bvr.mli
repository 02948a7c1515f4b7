(** Beacon Vector Routing (Fonseca et al., NSDI 2005) — a Fig 1 baseline.

    BVR gives every node a coordinate: its vector of distances to [r]
    randomly chosen beacons. Packets carry the destination's coordinate
    and are forwarded greedily to the neighbor minimizing BVR's asymmetric
    distance over the destination's [k] closest beacons (moving {e toward}
    a beacon the destination is close to is weighted tenfold versus moving
    away). When greedy is stuck, the packet falls back to routing toward
    the destination's closest beacon; if it arrives there still stuck, BVR
    would scoped-flood — we count that as a failure instead.

    The per-node state is tiny (r distances + r beacon next-hops), which
    is BVR's appeal; the paper's critique — greedy gets stuck in local
    minima, stretch is unbounded, and name lookup needs the beacons — is
    what the [fig1] experiment measures. *)

type t

val build : rng:Disco_util.Rng.t -> Disco_graph.Graph.t -> t
(** ~sqrt(n log n) beacons (the landmark rate) capped at 128 — the
    count x n distance slab dominates memory at million-node scale and
    more beacons stop buying routing power well before that; the packet
    routes on the destination's 10 closest beacons, as in the BVR
    paper. *)

val beacon_count : t -> int

val state_entries : t -> int -> int
(** Coordinates plus beacon next-hops at one node. *)

val state_bytes : t -> int -> float
(** Exact bytes of the node's columns of the packed slabs: 8 bytes of
    float64 distance plus one word of next hop per beacon. *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (4). *)

val forward :
  t ->
  Disco_core.Dataplane.header ->
  at:int ->
  Disco_core.Dataplane.decision
(** One greedy/fallback step at node [at] from the carried coordinate
    (phases {!Dataplane.Greedy}/{!Dataplane.Fallback}, re-entry bound in
    [fbound]). Drops ([No_route]) when the packet is stuck at the
    fallback beacon, where BVR would flood. *)

val packet_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The header a source emits: greedy phase, the destination's coordinate
    as payload bytes (4 per routing beacon). *)

val coordinate : t -> int -> float array
(** The node's beacon-distance vector (exposed for tests). *)

(** {2 Compiled fast path} *)

type fast
(** Per-destination routing-beacon components precomputed into one
    stride-[routing_beacons] slab over the build's distance/parent slabs,
    for the zero-alloc walker. *)

val compile : t -> fast
val fast_prime : fast -> src:int -> dst:int -> unit

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision, mirroring {!forward} exactly (epsilons, nan
    propagation and all); floats stay in the packet's [pfs] scratch. *)
