(** Metric collectors for the evaluation (§5.2): state, stretch,
    congestion.

    Conventions follow the paper: state counts data-plane routing-table
    entries; stretch is route length over shortest-path length, over
    sampled source–destination pairs; congestion routes one flow from
    every node to a uniform-random destination and counts per-edge path
    usage. All sampling is driven by explicit RNGs for reproducibility. *)

type state_result = {
  disco : float array;
  nddisco : float array;
  s4 : float array;
  pathvector : float array;  (** n-1 entries at every node *)
  vrr : float array option;
}

val state : ?with_vrr:bool -> Testbed.t -> state_result
(** Per-node entry counts for each protocol. *)

type stretch_series = { first : float array; later : float array }

type stretch_result = {
  s_disco : stretch_series;
  s_s4 : stretch_series;
  s_vrr : float array option;
  vrr_failures : int;
}

val stretch :
  ?pairs:int ->
  ?with_vrr:bool ->
  ?jobs:int ->
  Testbed.t ->
  stretch_result
(** Stretch over [pairs] sampled pairs (default 2000), shortcutting with
    {!Disco_core.Shortcut.No_path_knowledge} as in the paper's headline
    results. S4 first packets pay the resolution detour; Disco first
    packets use sloppy groups. [jobs] fans the per-source tasks out over a
    domain pool; results are identical for every value (default 1). *)

val mean_stretch_by_heuristic :
  ?pairs:int ->
  ?jobs:int ->
  Testbed.t ->
  (Disco_core.Shortcut.heuristic * float) list
(** Fig 6 row: mean later-packet Disco stretch under each heuristic, on
    the same sampled pairs. *)

type congestion_result = {
  c_disco : float array;  (** per undirected edge: number of paths using it *)
  c_s4 : float array;
  c_pathvector : float array;
  c_vrr : float array option;
}

val congestion :
  ?with_vrr:bool -> ?tel:Disco_util.Telemetry.t -> Testbed.t ->
  congestion_result
(** One flow per node to a uniform-random destination, each walked
    through the scheme's data plane with its later-packet header.
    [tel] (fresh by default) accumulates the walker counters. *)

val path_stretch :
  Disco_graph.Graph.t -> dist:float -> int list -> float
(** Stretch of one route given the true shortest distance. *)
