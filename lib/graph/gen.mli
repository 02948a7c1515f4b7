(** Topology generators for the evaluation (§5.1).

    The paper evaluates on (1) an AS-level Internet map, (2) a router-level
    Internet map, (3) G(n,m) random graphs with average degree 8, and
    (4) geometric random graphs with average degree 8 (latency-weighted).
    The two CAIDA maps are proprietary snapshots, so we substitute
    preferential-attachment synthetics with matching heavy-tailed degree
    distributions (see DESIGN.md §2); the other two families are generated
    exactly as described.

    All generators return connected graphs (disconnected leftovers are
    stitched with minimal extra edges) and are deterministic in the given
    RNG. *)

val gnm : rng:Disco_util.Rng.t -> n:int -> m:int -> Graph.t
(** Uniform random graph with [n] nodes and [m] distinct edges, all of
    weight 1. The paper uses [m = 4n] (average degree 8). *)

val geometric :
  rng:Disco_util.Rng.t -> n:int -> avg_degree:float -> Graph.t
(** Random geometric graph: nodes uniform in the unit square, an edge
    between every pair within the radius that yields [avg_degree] in
    expectation, weighted by Euclidean distance (link latency). *)

val ring : n:int -> Graph.t
(** Cycle with unit weights; the worst case for explicit-route length. *)

val grid : rows:int -> cols:int -> Graph.t
(** Unit-weight 2-D mesh. *)

val star_of_stars : branch:int -> Graph.t
(** The S4 worst case of footnote 6: a root with [branch] children at
    distance 1, each child with [branch] grandchildren at distance 2.
    S4's cluster state at the root is Θ(n); Disco's stays bounded. *)

val power_law :
  rng:Disco_util.Rng.t -> n:int -> attach:int -> Graph.t
(** Barabási–Albert preferential attachment: each arriving node connects
    to [attach] existing nodes chosen proportionally to degree. Unit
    weights. *)

val internet_as : rng:Disco_util.Rng.t -> n:int -> Graph.t
(** AS-level Internet stand-in: preferential attachment with [attach = 2]
    (sparse, very heavy-tailed core — matches AS-graph degree shape). *)

val internet_router : rng:Disco_util.Rng.t -> n:int -> Graph.t
(** Router-level Internet stand-in: preferential attachment with
    [attach = 3] plus 10% uniform-random extra edges (flatter tail and
    higher local meshing, as in router maps). *)

val glp : rng:Disco_util.Rng.t -> n:int -> unit -> Graph.t
(** Generalized linear preference (Bu & Towsley 2002): attachment
    probability ∝ (degree − [beta]); with probability [p] a step adds [m]
    links between existing nodes, else a new node with [m] links. The
    constants ([m = 1], [p = 0.4695], [beta = 0.6447]) are the paper's AS-graph fit;
    the linear edge count is what the million-node scaling sweep relies
    on. Unit weights, stitched connected. *)

type kind = As_level | Router_level | Gnm | Geometric | Glp

val by_kind : rng:Disco_util.Rng.t -> kind -> n:int -> Graph.t
(** Dispatch used by the experiment harness; G(n,m) and geometric use
    average degree 8 as in the paper. *)

val kind_name : kind -> string

val all_kinds : kind list
(** Every generator family, in a fixed order (CLIs and sweeps iterate it). *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_name}. *)
