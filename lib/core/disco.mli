(** Disco: name-independent compact routing on flat names (§4.4).

    Disco = NDDisco + the landmark resolution database + sloppy groups
    disseminated over the Symphony overlay. To route to a flat name, a
    source that does not already know the destination's address forwards
    to the vicinity member whose hash best matches the destination's —
    w.h.p. a member of the destination's sloppy group, which stores the
    address — and that member completes the route:

    [s ~> w ~> l_t ~> t]

    Theorem 1: stretch <= 7 on the first packet, <= 3 afterwards, w.h.p.
    Both theorems are exercised as properties in the test suite; the
    evaluation harness measures the actual distributions. *)

type t = {
  nd : Nddisco.t;
  groups : Groups.t;
  overlay : Overlay.t;
  resolution : Resolution.t;
}

val build : ?names:Name.t array -> rng:Disco_util.Rng.t -> Disco_graph.Graph.t -> t
(** Build full converged Disco state over a graph with the default
    parameters, landmark draw and exact-estimate grouping; {!of_nddisco}
    takes explicit groups (the n-error experiment). *)

val of_nddisco : rng:Disco_util.Rng.t -> ?groups:Groups.t -> Nddisco.t -> t

type first_packet_case =
  | Trivial  (** source = destination *)
  | Direct_landmark  (** destination is a landmark *)
  | Direct_vicinity  (** destination in the source's vicinity *)
  | Known_address  (** source is in the destination's group *)
  | Via_group_member of int  (** the vicinity member w that held the address *)
  | Resolution_fallback
      (** no usable group member in the vicinity (vanishingly rare);
          fell back to the landmark resolution database *)

val classify_first : t -> src:int -> dst:int -> first_packet_case

val route_first :
  ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list
(** First packet of a flow toward a flat name (stretch <= 7 w.h.p.). *)

val route_first_case :
  ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list * first_packet_case

val route_later :
  ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list
(** Packets after the handshake (stretch <= 3 w.h.p.); identical to
    NDDisco since the source now holds the destination's address. *)

type state_detail = {
  nd_detail : Nddisco.state_detail;
  group_entries : int;  (** addresses of group members stored at the node *)
  overlay_neighbors : int;
}

val state_entries : t -> int -> state_detail
val total_entries : state_detail -> int

val state_bytes : t -> name_bytes:int -> int -> float
(** Data-plane state in bytes at a node (Fig 7): route entries cost
    name + label bytes; address mappings (groups, resolution) cost
    name + address bytes. *)

val packed_state_bytes : t -> int -> float
(** Exact per-node state from the packed slabs (vicinity view, landmark
    tree slots, address slab slice, ring, Othello FIB share, stored group
    and resolution addresses) — no name-size modelling, no [Obj]
    guesswork. Forces only what [v]'s accounting needs. *)
