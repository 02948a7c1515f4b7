(** Shortest-path trees, one per root: landmarks (Disco, NDDisco, S4),
    sources (path vector's routes, SEATTLE's link-state table) or pivots
    (TZ). One memo serves every scheme on a topology: NDDisco creates it,
    and the testbed hands the same one to the other schemes.

    Path-vector convergence leaves every node with a shortest path to every
    landmark; statically that is the landmark's single-source tree. Trees
    are computed lazily and cached — a stretch experiment touches only the
    roots involved in its sampled routes. The [~lm] label names any root. *)

type t

val create : Disco_graph.Graph.t -> pinned:bool array -> t
(** [pinned.(v)] keeps [v]'s tree for the memo's lifetime once computed
    (NDDisco pins its landmarks). Trees of other roots share a fixed
    budget of 2^19 node entries (at least 4 trees): past it the least
    recently used is dropped and recomputed on its next use, so routes
    never change and the unpinned trees never take more than
    max(8 MiB, 64 B per node).
    @raise Invalid_argument if [pinned] has not one entry per node. *)

val graph : t -> Disco_graph.Graph.t
(** The topology the trees are computed on. *)

val dist : t -> lm:int -> int -> float
(** [d(lm, v)] (= [d(v, lm)], the graph is undirected). *)

val path_from : t -> lm:int -> int -> int list
(** Shortest path [lm; ...; v].
    @raise Invalid_argument if [v] is unreachable. *)

val path_to : t -> int -> lm:int -> int list
(** Shortest path [v; ...; lm]: the reverse walk (§6 notes Disco relies on
    route reversibility). *)

val parents : t -> lm:int -> int array
(** The tree's parent array (predecessor on the path from [lm]; -1 at the
    root and at unreachable nodes).  Forces the tree.  The compiled fast
    paths flatten root routes through this: following parents from [v]
    reads off [path_to v ~lm] without allocating. *)

val rows : t -> int array array
(** A fresh table of parent rows for a compiled fast path: one slot per
    node, every slot unprimed ([[||]]). *)

val prime : t -> int array array -> int -> unit
(** [prime t rows root] fills [rows.(root)] with [parents t ~lm:root]
    unless it is filled already (idempotent).  Compiled forwards call it
    at flow setup, so the hop loop only reads rows. *)

val cached_count : t -> int
(** Number of pinned trees computed so far. *)
