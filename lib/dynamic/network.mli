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
      converge without explicit withdrawals);
    - each node periodically recomputes its address (closest landmark in
      its table + the reverse of that route), inserts it at the resolution
      owner (§4.3: "updated every t minutes and timed out after 2t+1"),
      and gossips it through its sloppy group with the directional
      forwarding rule of §4.4;
    - landmark status follows the factor-2 hysteresis rule when the
      (externally supplied) estimate of n changes.

    The driver activates/deactivates nodes and advances time; routing
    queries walk the packet hop by hop using only per-node state, like
    {!Disco_core.Forwarding}. *)

type config = {
  hello_interval : float;
  refresh_interval : float;  (** route re-announcement period *)
  addr_interval : float;  (** the paper's t (address refresh) *)
  params : Disco_core.Params.t;
}

val default_config : config

type t

val create :
  ?config:config ->
  rng:Disco_util.Rng.t ->
  graph:Disco_graph.Graph.t ->
  n_estimate:int ->
  unit ->
  t
(** A network over [graph] with all nodes initially inactive. [n_estimate]
    seeds every node's size estimate (drive it later with
    {!set_estimate}). *)

val activate : t -> int -> unit
(** Bring a node up: it draws landmark status, starts its timers and
    announces itself. Idempotent. *)

val activate_all : t -> unit

val deactivate : t -> int -> unit
(** Silent fail-stop: the node stops sending; the rest of the network
    notices through hello/route expiry. *)

val set_estimate : t -> int -> n:int -> unit
(** Update one node's estimate of n (re-evaluates landmark status under
    the hysteresis rule, and its group width). *)

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

val route : t -> src:int -> dst:int -> int list option
(** Walk a packet from [src] toward [dst]'s flat name using only per-node
    protocol state (tables, address stores, resolution), with
    to-destination shortcutting. [None] if undeliverable with current
    state. *)

val reachable_fraction : t -> pairs:(int * int) list -> float
(** Fraction of the given (active) pairs the network can currently
    deliver. *)
