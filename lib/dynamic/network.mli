(** The dynamic, distributed Disco protocol running on the event simulator.

    The static simulator (Disco_core) computes converged state; this module
    {e earns} that state through protocol messages, and keeps it correct as
    nodes come and go:

    - every node periodically beacons [Hello] to its neighbors; silence for
      [3 * hello_interval] marks a neighbor dead and purges routes through
      it;
    - routes (landmarks + the k closest nodes) spread by event-driven path
      vector with the acceptance rule of §4.2, refreshed every
      [refresh_interval] and expired when stale (soft state — leaves
      converge without explicit withdrawals). As in the static path
      vector, each table is a {!Disco_pathvector.Admission.t} (an exact
      count of vicinity routes and a bound on their distance), with k from
      the node's own estimate of n; expiry and withdrawals here let a
      shorter route evict the farthest;
    - each node periodically recomputes its address (closest landmark in
      its table + the reverse of that route), inserts it at the resolution
      owner (§4.3: "updated every t minutes and timed out after 2t+1"),
      and gossips it through its sloppy group with the directional
      forwarding rule of §4.4;
    - a node resolves a name at the landmark whose ring point follows
      the name's hash among the landmarks it knows (itself when it is
      one, and its landmark routes). {!create} hashes one ring over every
      node; the known landmarks' points are a subsequence of it in the
      same order, so the first of them from the hash's successor on is
      that landmark;
    - landmark status follows the factor-2 hysteresis rule
      ({!Disco_core.Landmark_churn.redraw_due}) when the (externally
      supplied) estimate of n changes.

    The driver activates/deactivates nodes and advances time; routing
    queries walk the packet hop by hop through the shared
    {!Disco_core.Dataplane.walk}, one {!forward} decision per node, using
    only that node's state, like {!Disco_core.Forwarding}. *)

type t

val create :
  rng:Disco_util.Rng.t ->
  graph:Disco_graph.Graph.t ->
  n_estimate:int ->
  unit ->
  t
(** A network over [graph] with all nodes initially inactive. [n_estimate]
    seeds every node's size estimate (drive it later with
    {!set_estimate}). Hellos go every 5 s, route re-announcements every
    30 s and address refreshes every 120 s (the paper's t), under
    {!Disco_core.Params.default}. Builds the resolution ring over every
    node, with [resolution_replicas] points each. *)

val activate : t -> int -> unit
(** Bring a node up: it draws landmark status, starts its timers and
    announces itself. Idempotent. *)

val activate_all : t -> unit

val deactivate : t -> int -> unit
(** Silent fail-stop: the node stops sending; the rest of the network
    notices through hello/route expiry. *)

val set_estimate : t -> int -> n:int -> unit
(** Update one node's estimate of n (re-evaluates landmark status under
    {!Disco_core.Landmark_churn.redraw_due}, and its group width). *)

val run_until : t -> float -> unit
(** Advance simulated time (processing all protocol events). *)

val now : t -> float
val messages_sent : t -> int

val is_active : t -> int -> bool
val is_landmark : t -> int -> bool
val landmark_count : t -> int

val route_table_size : t -> int -> int
(** Current routing-table entries at a node (routes + stored addresses +
    resolution entries). *)

val address_of : t -> int -> Msg.address option
(** The node's current self-computed address. *)

val forward :
  t -> Disco_core.Dataplane.header -> at:int -> Disco_core.Dataplane.decision
(** One node's decision from its current protocol state, in the
    Seek/Steer/Carry vocabulary:
    - {!Disco_core.Dataplane.Seek} (only [dst]'s flat name): carry along
      the node's route to [dst], else along a stored group address (via
      the route to its landmark), else steer toward the resolution owner
      the node finds among its own known landmarks on the shared ring;
      the owner itself carries along its resolution entry;
    - {!Disco_core.Dataplane.Steer} (toward the owner in [waypoint]): seek
      afresh at a node that holds a route or an address for [dst], or at
      the owner; otherwise the next hop toward the owner, even at [dst];
    - {!Disco_core.Dataplane.Carry}: deliver at [dst], divert onto the
      node's own route to [dst] when it differs from the labels left, else
      take the next label.

    A hop into an inactive node is [Drop No_route]. *)

val route : t -> src:int -> dst:int -> int list option
(** Walk a packet from [src] toward [dst]'s flat name: {!forward} under
    the shared {!Disco_core.Dataplane.walk}, so a 4n-decision TTL, loop
    detection, and hops only over real links.  [Some [src]] when
    [src = dst]; [None] when either endpoint is inactive (both checked
    before any walk) or the walk does not deliver with current state. *)

val reachable_fraction : t -> pairs:(int * int) list -> float
(** Fraction of the given (active) pairs the network can currently
    deliver. *)
