(** NDDisco: the name-dependent distributed compact routing protocol
    (§4.2).

    Every node knows shortest paths to all landmarks and to its vicinity;
    its address is (closest landmark, explicit route from it). Given the
    destination's {e address}, a source routes:

    - directly, if the destination is a landmark or in the source's
      vicinity;
    - otherwise via the destination's landmark, [s ~> l_t ~> t] — worst
      case stretch 5 on the first packet;
    - after the handshake (the destination replies with the exact path if
      the source is in {e its} vicinity), worst-case stretch 3.

    This module is the static simulator's view: tables as they stand after
    path-vector convergence (the dynamic construction lives in
    [Disco_pathvector.Pathvector] and the two are cross-checked in the
    test suite). *)

type addresses = {
  alm : int array;  (** closest landmark per node *)
  aroute : Packed.Csr.t;  (** explicit routes [l_v; ...; v], one CSR row per node *)
  albl_off : int array;  (** byte offsets into [albl], length n+1 *)
  albl_bits : int array;  (** exact label bit length per node *)
  albl : Bytes.t;  (** concatenated per-hop forwarding labels *)
}
(** Every address packed into flat slabs (the succinct-state layout): the
    compiled data plane walks [aroute] rows in place; {!address}
    rehydrates a boxed {!Address.t} for the typed face. *)

type t = {
  graph : Disco_graph.Graph.t;
  params : Params.t;
  names : Name.t array;
  hashes : Disco_hash.Hash_space.id array;
  landmarks : Landmarks.t;
  vicinity : Vicinity.t;
  trees : Landmark_trees.t;
  addresses : addresses;
}

val build :
  ?params:Params.t ->
  ?names:Name.t array ->
  ?landmark_ids:int array ->
  ?guarantee_coverage:bool ->
  rng:Disco_util.Rng.t ->
  Disco_graph.Graph.t ->
  t
(** Construct converged protocol state. [landmark_ids] overrides random
    landmark selection (operators may choose landmarks, §6);
    [guarantee_coverage] (default false) repairs the landmark set with
    {!Landmarks.ensure_coverage} so the stretch theorems hold
    deterministically rather than w.h.p. *)

val n : t -> int

val address : t -> int -> Address.t
(** Rehydrated from the packed slabs; allocates — typed face only. *)

val address_landmark : t -> int -> int
(** [ (address t v).landmark ] without the rehydration. *)

val address_route_list : t -> int -> int list
(** Route column of [v]'s address, read straight off the CSR. *)

val knows : t -> Shortcut.knowledge
(** Direct-path knowledge of a node: shortest paths to landmarks and to
    its vicinity — what shortcutting is allowed to consult. *)

val raw_route : t -> src:int -> dst:int -> int list
(** The unshortcut route a first packet follows when [src] holds [dst]'s
    address: direct if [dst] is a landmark or in V(src), else
    [src ~> l_dst ~> dst]. *)

val route_first : ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list
(** First-packet route (stretch <= 5 after shortcutting; default heuristic
    {!Shortcut.No_path_knowledge} as in all the paper's headline results). *)

val route_later : ?heuristic:Shortcut.heuristic -> t -> src:int -> dst:int -> int list
(** Route after the handshake: if [src] is in V(dst), the destination has
    revealed the exact shortest path; otherwise same as a first packet
    (stretch <= 3 given a landmark in each vicinity). *)

val address_slab_bytes : t -> int -> int
(** Exact bytes of [v]'s slice of the packed address slabs. *)

val packed_state_bytes : t -> int -> float
(** Exact per-node state measured from the packed slabs: vicinity view
    arrays + a (parent, dist) slot per landmark tree + the node's own
    address. Forces only [v]'s vicinity view (lazy-friendly at large n). *)

type state_detail = {
  vicinity_entries : int;
  landmark_entries : int;
  label_mappings : int;
  resolution_entries : int;  (** nonzero only at landmarks; set by caller *)
}

val state_entries : ?resolution_entries:int -> t -> int -> state_detail
(** Data-plane routing-table entries at a node, per the paper's state
    accounting (§5.2): vicinity + landmark forwarding entries + forwarding
    label mappings (+ name-resolution load on landmarks, supplied by the
    resolution module). *)

val total_entries : state_detail -> int
