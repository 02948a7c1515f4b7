(** Disco's data plane: the per-hop forward functions for Disco and
    NDDisco, expressed as {!Dataplane.decision}s.

    {!Disco.route_first}/{!Disco.route_later} compute routes from the
    static simulator's global view; this module {e executes} a packet hop
    by hop using only state the forwarding node actually holds — its
    vicinity table, its landmark routes, its sloppy-group address store —
    exactly as a router would. The walk and the oracle must agree on
    delivery and on path length (tested, and enforced by disco-check's
    walk≡oracle differential), which is the strongest internal check that
    the protocol is genuinely distributed: no step consults information
    the current node wouldn't have.

    A first packet toward a flat name goes through phases:

    + at the source ({!Dataplane.Seek}): classify — deliver locally,
      source-route if the address is known, else head for the best group
      proxy in the vicinity;
    + at the proxy: look the name up in the group store and rewrite the
      packet with the destination's address ({!Dataplane.Carry});
    + toward the landmark ({!Dataplane.Steer}): follow the path-vector
      route to [l_t];
    + from the landmark: consume the address's forwarding labels bit by
      bit (the explicit route);
    + any node on the way that knows a direct route to the destination
      diverts ("to-destination" shortcutting), and the destination answers
      with the exact path when the source is in {e its} vicinity (the
      handshake), which is where later packets' stretch-3 routes come
      from. *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (Disco uses [4 * n] decisions). *)

val forward : Disco.t -> Dataplane.header -> at:int -> Dataplane.decision
(** One Disco forwarding decision at node [at], consulting only that
    node's vicinity, landmark, group-store and resolution state. *)

val first_header : Disco.t -> src:int -> dst:int -> Dataplane.header
(** The header a source emits for a first packet: just the flat name
    ({!Dataplane.Seek}). *)

val later_header : Disco.t -> src:int -> dst:int -> Dataplane.header
(** The header once the source holds the destination's address (and the
    handshake path, which the destination sends iff the source is in its
    vicinity): an explicit {!Dataplane.Carry} route, falling back to a
    first-packet header when the source holds nothing.  Walk it with
    [Dataplane.walk ~forward:(forward d)]. *)

(** {2 NDDisco}

    NDDisco's contract assumes the source already holds the destination's
    address, so its data plane is the pure label-route machine: an
    explicit {!Dataplane.Carry} header from the source, with
    to-destination shortcutting at every hop. *)

val forward_nd : Nddisco.t -> Dataplane.header -> at:int -> Dataplane.decision
val first_header_nd : Nddisco.t -> src:int -> dst:int -> Dataplane.header
val later_header_nd : Nddisco.t -> src:int -> dst:int -> Dataplane.header

(** {2 Compiled fast path}

    The zero-alloc face of {!forward}/{!forward_nd}.  It reads the state
    the typed face reads: the vicinity view records themselves, shared
    through {!Vicinity.slots}, Nddisco's address CSR and the resolution
    FIB.  Landmark trees become parent rows primed per flow, and name
    hashes unsigned 32-bit halves.

    {!compile_nd} (and so {!compile}) adds one index, the inverse rows
    ({!transpose}): for each node [w], the nodes whose vicinity holds
    [w], 8 B per vicinity entry.  A Carry hop at [u] asks whether [dst]
    is in V(u), and at which index, of [dst]'s row ({!inverse_find}),
    which stays in cache for the whole packet, then follows the view's
    parent indexes with one load per label.

    {!compile} adds another, the hash-order rows: each node's vicinity
    row in a second order, its members' ranks in {!Groups.sorted_ids}
    ascending, 4 B per member in one int32 slab.  A first packet finds
    its group proxy in them by binary search ({!hash_order_proxy})
    instead of scanning all k members.

    Both are plan indexes over state the node already holds, so
    [state_bytes] counts neither.

    {!fast_step} mirrors the typed steps decision for decision
    (disco-check's fast≡typed differential holds them to the same hop
    sequence and verdict). *)

type fast

type slab = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type inverse = {
  ioff : int array;  (** [w]'s row is [iu]/[iidx] from [ioff.(w)] to [ioff.(w+1) - 1] *)
  iu : slab;  (** the ids [u] with [w] in V(u), ascending *)
  iidx : slab;  (** parallel: [w]'s index in V(u)'s id-sorted [members] *)
}
(** The vicinity table transposed. *)

val transpose : Vicinity.view array -> inverse
(** [transpose views], where [views.(u)] is V(u): one pass counts each
    row, a second fills every row in ascending order. *)

val inverse_find : inverse -> int -> int -> int
(** [inverse_find inv w u] is [w]'s index in V(u), or [-1] when [w] is
    not in V(u): a binary search over [w]'s row. *)

val hash_order_proxy :
  hi:int array ->
  lo:int array ->
  order:int array ->
  rank:int array ->
  row:slab ->
  off:int ->
  len:int ->
  members:int array ->
  dists:float array ->
  int ->
  int
(** [hash_order_proxy ~hi ~lo ~order ~rank ~row ~off ~len ~members ~dists
    dst] is the index in [members] of the group proxy the typed [Disco]
    rule picks in one vicinity row: the member other than [dst] whose
    name hash shares the longest prefix with [dst]'s, then the least
    distance, then the least id; [-1] when the row holds no member but
    [dst].
    - [hi]/[lo]: each node's name-hash halves;
    - [order]: node ids by hash (unsigned, ties by id); [rank] inverts it;
    - [row.{off .. off+len-1}]: the row's members as ranks, ascending;
    - [members]/[dists]: the view's id-sorted rows.

    The longest prefix lies at [dst]'s nearest non-[dst] neighbour on
    either side in hash order, and every member with that prefix length
    sits in one contiguous run around that point.  Cost: a binary search
    plus the run, each run member one more binary search in [members]. *)

val compile : Disco.t -> fast
val compile_nd : Nddisco.t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the landmark parent rows a flow to [dst] can touch: the
    destination itself when it is a landmark, else its address landmark
    and its resolution owner. *)

val fast_prime_nd : fast -> src:int -> dst:int -> unit

val fast_step : fast -> Dataplane.packet -> int -> int
(** One zero-alloc Disco decision (Seek/Steer/Carry machine). *)

val fast_step_nd : fast -> Dataplane.packet -> int -> int
(** One zero-alloc NDDisco decision (pure Carry machine). *)
