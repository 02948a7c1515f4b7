(** Shortest-path machinery: full, truncated, and multi-source Dijkstra.

    Everything the protocols derive their tables from: vicinities are
    truncated runs ({!k_closest}), S4 clusters are radius-bounded runs
    ({!within_radius}), landmark trees come from {!multi_source}, and
    stretch is measured against {!sssp}.

    A {!workspace} holds the scratch arrays (distances, flags, a heap) so
    running Dijkstra from all n sources costs O(settled) resets per run
    instead of O(n). A workspace holds one run at a time, so it must never
    be shared by code running at once: a {!Disco_util.Pool.Memo} lends one
    to each concurrent fill, and other callers keep one per task.

    Every run is lazy-deletion Dijkstra over a {!Disco_util.Heap}: each
    decrease of a node's tentative distance pushes it again, so the first
    pop of an unsettled node carries its final distance (the run reads it
    from the workspace) and later pops of a settled node are skipped.
    Distance ties settle in push order. *)

type workspace

val make_workspace : Graph.t -> workspace
(** Scratch for runs on the given graph, or on any graph with as many
    nodes. Making one costs O(n + m): it also reads the graph's lightest
    edge weight for {!k_closest}. *)

type sssp = { dist : float array; parent : int array }
(** Full single-source result: [dist.(v) = infinity] and [parent.(v) = -1]
    when [v] is unreachable; [parent.(src) = -1]. *)

val sssp : ?ws:workspace -> ?until:int -> Graph.t -> int -> sssp
(** [sssp ?until g src] runs to exhaustion by default; with [~until:t] it
    halts as soon as [t] settles (its [dist]/[parent] entries are final),
    leaving later nodes at [infinity]/[-1]. *)

val distance : ?ws:workspace -> Graph.t -> int -> int -> float
(** Single-pair distance with early termination; [infinity] if unreachable. *)

type truncated = {
  source : int;
  order : int array;  (** settled nodes in settle order; [order.(0) = source] *)
  tdist : float array;  (** parallel to [order] *)
  tparent : int array;
      (** parallel to [order]: predecessor node id on the shortest path from
          [source]; [-1] for the source itself. Predecessors always appear
          earlier in [order]. *)
}

val k_closest : ?ws:workspace -> Graph.t -> int -> int -> truncated
(** [k_closest g src k] settles the [min k n] nodes closest to [src]
    (including [src]). Distance ties are broken by push order: among
    nodes at equal distance, the one whose final distance was pushed
    first settles first, so ties at the boundary resolve
    deterministically.

    The search stops early without changing that result. Once [min k n]
    distinct nodes have been reached, the largest distance B at which any
    of them was first reached bounds the k-th settled distance. From then
    on the search skips every push at or beyond B, and the neighbour scan
    of any settled node whose distance plus the graph's lightest edge is
    at or beyond B. A node first reached at exactly B after B is fixed is
    pushed after the k nodes that fixed it, so it could only settle
    behind them. The order, distances and parents are those of the
    unbounded search. *)

val id_order : truncated -> int array
(** [id_order run] is [run]'s settle indexes in ascending node id:
    [run.order.(p.(0)) < run.order.(p.(1)) < ...] for [p = id_order run].
    Two stable counting passes over keys packing each node id above its
    settle index, so a row of [c] nodes with ids below [2^b] sorts in
    O(c + 2^(b/2)). *)

val within_radius : ?ws:workspace -> Graph.t -> int -> float -> truncated
(** [within_radius g src r] settles every node at distance < [r] — the
    strict inequality matches S4's cluster definition ("closer to v than
    to their closest landmark"). *)

type multi = {
  mdist : float array;  (** distance to the nearest source *)
  mparent : int array;  (** shortest-path forest predecessor; -1 at roots *)
  msource : int array;  (** which source is nearest; -1 if unreachable *)
}

val multi_source : Graph.t -> int array -> multi
(** Simultaneous Dijkstra from all sources: per node, the distance to and
    identity of its nearest source (ties broken by heap settle order), and
    the forest for path extraction. Used for landmark assignment l_v. *)

val path_of_parents : parent:(int -> int) -> src:int -> dst:int -> int list
(** Reconstruct [src; ...; dst] by walking [parent] back from [dst].
    @raise Invalid_argument if the walk does not reach [src] within n
    steps (caller passes a closure that knows its own bounds). *)

val path_length : Graph.t -> int list -> float
(** Total weight of a node path.
    @raise Invalid_argument on a non-path (missing edge). *)
