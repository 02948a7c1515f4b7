(** The routing-scheme abstraction the whole evaluation runs on.

    Krioukov et al. frame compact-routing schemes as one family differing
    only in their state/stretch trade-off; [ROUTER] is that family as a
    module type. Every scheme in the repo — Disco, NDDisco, S4, VRR, BVR,
    SEATTLE, the TZ hierarchy and path vector — is registered here as a
    first-class module (see {!module:Routers}), and the sampled-pairs
    engine ({!module:Engine}), the figures, the bench harness and
    [disco-sim] all select schemes by registry name.

    A scheme exposes two faces of the same protocol:

    - a {e data plane} — a per-hop {!val:ROUTER.forward} function plus the
      headers sources emit. The shared walker ({!module:Walk}) executes it
      hop by hop; the sampled-pairs engine measures it.
    - two {e oracles} — {!val:ROUTER.oracle_first}/{!val:ROUTER.oracle_later},
      the closed-form route computations from the simulator's global view.
      disco-check's walk ≡ oracle differential checks the data plane
      against them.

    The scheme modules' closed-form routes also produce figures, so
    deleting an oracle means moving these to walks first:
    - [Metrics.stretch] builds fig3, fig4, fig5 and fig9 from
      [Disco.route_first]/[route_later], [Nddisco.route_first]/[route_later],
      [S4.route_first]/[route_later] and [Vrr.route];
    - [Metrics.mean_stretch_by_heuristic] builds fig6 from
      [Disco.route_later];
    - the [header] figure's heuristic table sizes [Disco.route_first]
      routes, and the [vicinity], [nerror] and [policy] figures measure
      them too.

    Adding a scheme is a one-registration change:
    + implement [ROUTER] (usually a thin adapter over an existing module),
    + [Protocol.register (module My_router)] in {!module:Routers},
    + done — [test_router_registry] picks it up and enforces the contract.
*)

module type ROUTER = sig
  type t

  val name : string
  (** Registry key, e.g. ["disco"]; lowercase, unique. *)

  val flat_names : string
  (** How the scheme supports flat names (the fig1 column), e.g.
      ["yes, stretch-bounded"] or ["lookup detour"]. *)

  val build : Testbed.t -> t
  (** Converged state over the testbed's graph. Adapters reuse the
      testbed's shared instances (same landmark draw across schemes) and
      its derived RNG streams, so builds are deterministic per seed. *)

  val ttl_factor : int
  (** Data-plane TTL budget as a multiple of [n] — a generous multiple of
      the worst-case route length (4 for most schemes; 8 for VRR, whose
      corridors wander). The walker drops the packet when it is spent. *)

  val first_header :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int ->
    Disco_core.Dataplane.header
  (** The header the source emits for the first packet of a flow toward a
      flat name, built from source-local state (plus the hash of the name;
      lookup detours are encoded in the header's phase/waypoint, not
      precomputed paths the source couldn't know). *)

  val later_header :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int ->
    Disco_core.Dataplane.header
  (** The header once the source caches whatever the first exchange taught
      it (address, handshake path, location). Schemes without a handshake
      emit the same header as {!first_header}. *)

  val forward :
    t -> Disco_core.Dataplane.header -> at:int -> Disco_core.Dataplane.decision
  (** One forwarding decision at node [at], consulting only state that
      node holds (plus the header). Pure: all in-flight protocol state
      lives in the header, so the walker — and disco-check — can replay
      and diff decisions freely. *)

  val oracle_first :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int -> int list option
  (** The closed-form first-packet route from the global view. [None]
      means the scheme cannot deliver (e.g. BVR stuck in a local minimum).
      Must agree with walking {!forward} from {!first_header} on delivery
      and weighted length (node sequences may differ only for schemes
      whose shortcutting can divert at several equivalent points). *)

  val oracle_later :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int -> int list option
  (** Same contract versus {!later_header} walks. *)

  val state_entries : t -> int -> int
  (** Data-plane routing-table entries at one node, per the paper's
      accounting (§5.2). Never negative. *)

  val state_bytes : t -> int -> float
  (** Exact bytes of one node's routing state as actually held in the
      packed representations (CSR rows, distance slabs, Othello FIB
      shares) — measured storage, not entries × a modelled name size.
      The [state] figure and the scaling bench plot this directly. *)

  val fork : t -> t
  (** A query handle that can route and forward concurrently with the
      original from another domain: shared converged state is immutable
      and may alias, but any query-time mutable scratch must either be
      private to the returned handle (the path-vector oracle forks its
      SSSP memo and workspace) or live behind {!Disco_util.Pool.Memo} (the
      demand-filled landmark/vicinity/ball/tree caches in Disco, NDDisco,
      S4, Seattle and TZ, whose cross-pair amortization is the point of
      sharing). Fork is therefore the identity for every adapter except
      path-vector — walker state (per-packet headers, traces, byte
      accounting) is local to each {!Walk} call, never stored on [t].
      Forked handles feed the parallel engine ({!Engine.run});
      [state_entries] is only called on the original. *)

  val compile : t -> Disco_core.Dataplane.fast_plan
  (** The scheme's zero-alloc face: node-local state flattened into int
      arrays so [fstep] is array indexing with no allocation per hop
      ({!Disco_core.Dataplane.fast_walk} runs it).  [fprime ~src ~dst]
      forces any lazily-built per-flow state at setup time.  The typed
      {!forward} stays the oracle: disco-check's fast≡typed differential
      holds the two walkers to the same hop sequence and verdict. *)
end

type packed = (module ROUTER)

val name_of : packed -> string

val register : packed -> unit
(** Append to the registry.
    @raise Invalid_argument on a duplicate name. *)

val all : unit -> packed list
(** Registered routers, in registration order. Prefer
    {!Routers.all}, which guarantees the built-in schemes are loaded. *)

val names : unit -> string list
val find : string -> packed option

val find_exn : string -> packed
(** @raise Invalid_argument with the known names on a miss. *)
