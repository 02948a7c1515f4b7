(** Shared experiment setup: a topology plus converged protocol state.

    Disco, NDDisco and S4 share one landmark set, and S4 resolves names
    through Disco's resolution database (all three select landmarks
    uniformly at the same rate; sharing the draw removes one source of
    cross-protocol noise, as in the paper's methodology of §5.1 where S4
    is run "as in [34] except that we use path vector ... making it more
    comparable to NDDisco"). VRR state is join-order dependent and
    expensive, so it is built only on demand.

    The {!module:Protocol} registry's [ROUTER] adapters are all built from
    a [t], so every scheme in an experiment measures the same converged
    world, and every shortest-path tree they read comes from one memo,
    {!trees}. *)

type t = {
  seed : int;
  kind : Disco_graph.Gen.kind option;
      (** [None] when built from an externally supplied graph *)
  graph : Disco_graph.Graph.t;
  disco : Disco_core.Disco.t;  (** [disco.nd] is the NDDisco instance *)
  s4 : Disco_baselines.S4.t;
  mutable vrr_cache : Disco_baselines.Vrr.t option;  (** via {!vrr} *)
}

val make :
  ?seed:int -> ?params:Disco_core.Params.t -> Disco_graph.Gen.kind -> n:int -> t

val of_graph :
  ?seed:int ->
  ?params:Disco_core.Params.t ->
  ?kind:Disco_graph.Gen.kind ->
  Disco_graph.Graph.t ->
  t
(** Converge the protocols over a pre-built graph (e.g. one loaded from an
    edge-list file). Uses the same derived RNG streams as {!make}. *)

val vrr : t -> Disco_baselines.Vrr.t
(** Build VRR over the same graph (cached per testbed). *)

val rng : t -> purpose:int -> Disco_util.Rng.t
(** Derived deterministic RNG stream for a measurement phase. *)

val nd : t -> Disco_core.Nddisco.t

val trees : t -> Disco_core.Landmark_trees.t
(** The testbed's one SSSP memo (NDDisco's landmark trees): every scheme
    takes its shortest-path trees from it, whatever their roots, so each
    tree of the topology is computed once. A tree depends only on the
    graph and its root, so sharing it changes no route. *)
