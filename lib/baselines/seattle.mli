(** SEATTLE (Kim, Caesar, Rexford — SIGCOMM 2008), a Fig 1 baseline.

    SEATTLE routers run a link-state protocol (shortest paths to every
    router: Θ(n) state) and look flat addresses up in a one-hop consistent
    hashing directory over the routers themselves. First packets detour
    through the resolver that owns the destination's hash — anywhere in
    the network — and later packets follow exact shortest paths. It
    therefore scales better than Ethernet but is neither o(n)-state nor
    low-stretch on first packets, which is its row in Fig 1. *)

type t

val build : trees:Disco_core.Landmark_trees.t -> names:Disco_core.Name.t array -> t
(** SEATTLE over the memo's graph. [trees] is the topology's SSSP memo: a
    router's link-state table is the tree rooted at it, read from the memo
    rather than recomputed. *)

val resolver_of : t -> int -> int
(** The router storing a destination's location (consistent hashing over
    all routers). *)

val state_entries : t -> int -> int
(** n-1 link-state routes + the node's directory share — a CSR row length
    over the inverted resolver map, not a rescan of all n slots. *)

val state_bytes : t -> int -> float
(** Exact bytes: one word per link-state route plus a 16-byte
    (name hash, location) directory entry per CSR row slot. *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (4). *)

val forward :
  t ->
  Disco_core.Dataplane.header ->
  at:int ->
  Disco_core.Dataplane.decision
(** Consume the explicit label route; a first packet's [Steer] leg ends at
    the resolver, which writes the onward route from its own link-state
    table. No shortcutting. *)

val first_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** Steer to the destination's resolver along the shortest path, so the
    first packet's walk is the shortest path to the resolver, then the
    shortest path onward. *)

val later_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The exact shortest path (the source caches the location). *)

(** {2 Compiled fast path} *)

type fast
(** Link-state trees flattened into per-root parent arrays for the
    zero-alloc walker ({!Disco_core.Dataplane.fast_walk}). *)

val compile : t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the source's and the resolver's trees for one flow, so
    {!fast_step} never fills a cache on the hop loop. *)

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision, mirroring {!forward} exactly (the fast≡typed
    differential's contract). *)
