(** Disco addresses: a landmark plus an explicit route from it (§4.2).

    The address of node [v] is the identifier of its closest landmark
    [l_v] paired with the information needed to forward along
    [l_v ~> v] — an explicit route listing one forwarding label per hop.
    The label at a degree-[d] node costs [ceil(log2 d)] bits (the pathlet
    format of [19]), which is why measured addresses are tiny: on the
    paper's router-level Internet map the mean is 2.93 bytes and the max
    10.625 bytes. Addresses are internal protocol state, recomputed as the
    topology changes; names stay flat. *)

type t = private {
  landmark : int;  (** l_v, as a graph node id *)
  route : int array;  (** node path [l_v; ...; v], inclusive of both ends *)
  labels : bytes;  (** packed per-hop forwarding labels *)
  label_bits : int;  (** exact bit length of [labels] *)
}

val make : Disco_graph.Graph.t -> route:int list -> t
(** [make g ~route] encodes an explicit route whose head is the landmark
    and whose last element is the addressed node. The route must be a
    path in [g].
    @raise Invalid_argument if the route is empty or not a path. *)

val of_parts : landmark:int -> route:int array -> labels:bytes -> label_bits:int -> t
(** Rehydrate an address from packed storage ({!Nddisco} keeps all
    addresses in flat slabs). The parts must originate from {!make};
    no re-validation is performed. *)

val decode : Disco_graph.Graph.t -> landmark:int -> labels:bytes -> hops:int -> int list
(** Replay [hops] packed labels from [landmark]: the data-plane forwarding
    walk. [decode g ~landmark ~labels ~hops] returns the full node path;
    inverse of {!make} (tested as a round-trip property). *)

val hops : t -> int
(** Number of forwarding steps ([route length - 1]). *)

val route_byte_size : t -> int
(** Bytes occupied by the packed explicit route: [ceil (label_bits / 8)]. *)

val byte_size : name_bytes:int -> t -> int
(** Total wire size: landmark identifier ([name_bytes], e.g. 4 for
    IPv4-sized or 16 for IPv6-sized names) + packed route. *)

val pp : Format.formatter -> t -> unit
