(** The generalized Thorup–Zwick hierarchy: other points on the
    state/stretch tradeoff curve (§6: "Disco has chosen one point in the
    state/stretch tradeoff space ... can we translate other tradeoff
    points to a distributed setting?").

    TZ's full scheme samples nested landmark levels
    [A_0 = V ⊇ A_1 ⊇ ... ⊇ A_{k-1}] (each kept with probability
    [n^{-1/k}]) and gives every node a {e bunch}: at each level, the
    sampled nodes closer than the nearest next-level sample. Routing via
    the first common pivot yields worst-case stretch [2k - 1] with
    [O~(n^{1/k})] state — [k = 2] is (essentially) the Disco/S4 regime,
    larger [k] trades stretch for even smaller tables.

    This is the {e static, name-dependent} skeleton of that family, enough
    to measure the tradeoff curve (the [tradeoff] experiment); making its
    higher-[k] points dynamic and name-independent is exactly the open
    problem the paper poses. *)

type t

val build : rng:Disco_util.Rng.t -> k:int -> trees:Disco_core.Landmark_trees.t -> t
(** [build ~rng ~k ~trees] samples the hierarchy over the memo's graph and
    computes all bunches; routes read the pivots' shortest-path trees from
    [trees], the topology's SSSP memo. Requires [k >= 1]; [k = 1]
    degenerates to full shortest-path state. *)

val level_sizes : t -> int array
(** |A_0|, ..., |A_{k-1}|. *)

val state : t -> int -> int
(** Routing-table entries at a node: its bunch plus its per-level pivots. *)

val state_bytes : t -> int -> float
(** Bytes of a node's routing state: 16 per bunch entry (member id and
    its next hop, read from the member's tree) and 16 per level (pivot and
    its next hop). *)

val stretch_bound : t -> float
(** The scheme's worst-case guarantee, [2k - 1]. *)

val in_bunch : t -> node:int -> target:int -> bool
(** Is [target] in [node]'s bunch? (Exposed for tests.) *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (4). *)

val forward :
  t ->
  Disco_core.Dataplane.header ->
  at:int ->
  Disco_core.Dataplane.decision
(** One forwarding decision: climb the carried pivot's shortest-path tree
    (each hop a local parent lookup), then the pivot writes the explicit
    descent. A walk from {!packet_header} follows [src ~> pivot ~> dst]
    along shortest paths, so its length is d(src, pivot) + d(pivot, dst);
    it drops ([No_route]) only when the pair is disconnected. *)

val packet_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The header the source emits: the routing pivot of the (src, dst) climb
    as the [Steer] waypoint (-1 when the pair is disconnected). *)

(** {2 Compiled fast path} *)

type fast
(** Pivot trees flattened into parent arrays for the zero-alloc walker. *)

val compile : t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the (src, dst) routing pivot's tree for one flow. *)

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision, mirroring {!forward} exactly. *)
