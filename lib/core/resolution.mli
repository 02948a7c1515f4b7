(** Landmark-based name resolution (§4.3).

    A consistent-hashing database over the globally-known landmark set maps
    every node's name to its current address. Node [v] inserts
    [(name_v, address_v)] at the landmark owning key [h(name_v)]; anyone
    can query it. Resolution alone yields unbounded first-packet stretch —
    the query may cross the world — which is why Disco adds sloppy groups;
    but it remains (a) NDDisco's name lookup, (b) the bootstrap oracle for
    overlay fingers, and (c) Disco's fallback when group state is
    incomplete. *)

type t

val build : Nddisco.t -> t
(** Ring over the landmark set, with [params.resolution_replicas] virtual
    points per landmark. *)

val owner : t -> Name.t -> int
(** The landmark storing the given name's address. *)

val owners_by_node : t -> int array
(** [owner] applied to every node's name, computed once and cached. *)

val entries_at : t -> int -> int
(** Resolution-database load at one node: how many of the n names it
    stores, 0 for non-landmarks (Theorem 2: O(sqrt(n log n)) w.h.p. with
    one hash; multiple replicas flatten it). *)

val resolve_then_route : ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list
(** The first-packet route when resolution is the only name service, as in
    NDDisco-with-resolution and S4: travel to the owner landmark, learn the
    address, continue to the destination ([s ~> l* ~> l_t ~> t], shortcut
    along the way). This is the route whose stretch is unbounded. *)

val fib : t -> Packed.Othello.t
(** The succinct owner table: an Othello map from name-hash halves to the
    owning landmark, built on demand from the ring. Lookup is two bit-array
    probes and an xor — the FIB the compiled fast path queries instead of a
    materialised per-node owner array. Agrees with [owners_by_node]. *)

val ring_byte_size : t -> int
(** Exact bytes of just the consistent-hash ring (every node stores it). *)
