(** The one sampled-pairs measurement loop the whole evaluation shares —
    now task-based and optionally parallel.

    Sources are drawn uniformly and destinations grouped per source, so a
    single SSSP run provides the shortest-path oracle for a batch of
    pairs. {!plan} turns the drawn groups into an explicit task array (one
    task per source group, each with an {!Disco_util.Rng.derive}d seed);
    {!run} executes the tasks — sequentially, or on a {!Disco_util.Pool}
    — with a private accumulator and a private telemetry record per task,
    merged in task-index order at the barrier. Results are therefore
    bit-identical for every [jobs] value (DESIGN.md §5d). Every figure
    that measures stretch or state either calls {!sample_pairs}
    (table-driven, over registry routers) or maps a per-pair function via
    {!map_pairs}/{!map_groups} — there is no other copy of this loop in
    the repo. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the one timing source the
    harness uses. *)

type config = {
  seed : int;  (** deterministic RNG seed for the whole run *)
  scale : Scale.t;
  jobs : int;  (** worker-domain budget; 1 = sequential *)
  tel : Disco_util.Telemetry.t;  (** the figure's accumulator *)
}
(** What a figure runner receives (replaces the old [Protocol.ctx]): the
    seed, the scale, the parallelism budget, and the figure's telemetry
    record (threaded into the engine and the simulator). *)

val path_stretch : Disco_graph.Graph.t -> dist:float -> int list -> float
(** Stretch of one route given the true shortest distance. *)

val draw_pairs :
  ?dests_per_src:int ->
  Disco_util.Rng.t ->
  n:int ->
  pairs:int ->
  (int * int list) list
(** Sample ~[pairs] (source, destinations) groups ([dests_per_src]
    destinations per source, default 8; self-pairs dropped, duplicates
    merged). Drawing is separate from planning so sweeps can reuse one
    draw across variants (e.g. the heuristic table). *)

type task = {
  t_index : int;  (** position in the plan; merge order *)
  t_seed : int;  (** [Rng.derive plan_seed t_index] — tasks that need
                     randomness derive their own stream from this, never
                     from a shared RNG *)
  t_src : int;
  t_dests : int list;
}

val plan : seed:int -> (int * int list) list -> task array
(** One task per source group, in draw order. [seed] scopes the per-task
    seeds; callers derive it from their figure seed and RNG purpose. *)

val run :
  ?pool:Disco_util.Pool.t ->
  ?tel:Disco_util.Telemetry.t ->
  Disco_graph.Graph.t ->
  task array ->
  init:(task -> 'acc) ->
  visit:
    ('acc ->
    tel:Disco_util.Telemetry.t ->
    src:int ->
    dst:int ->
    dist:float ->
    unit) ->
  'acc array
(** Execute the plan: per task, one SSSP oracle for [t_src] (counted on
    the task's private telemetry, which [visit] also receives), then
    [visit] for every reachable destination with its true distance.
    Accumulators come back in task-index order, and per-task telemetry is
    folded into [?tel] in that same order — so the outcome is identical
    whether the tasks ran inline (no [pool], or a 1-job pool) or on
    [pool]. [init]/[visit] may share only state whose queries do not
    depend on scheduling: immutable values, and caches behind
    {!Disco_util.Pool.Memo} whose values depend only on their keys. Built
    routers meet this ({!Protocol.ROUTER.build}). *)

val map_groups :
  ?jobs:int ->
  ?tel:Disco_util.Telemetry.t ->
  seed:int ->
  Disco_graph.Graph.t ->
  (int * int list) list ->
  (src:int -> dst:int -> dist:float -> 'b) ->
  'b array
(** [plan] + [run] for the common shape "one value per sampled pair":
    returns [f]'s results in deterministic (task, destination) order,
    identical for every [jobs] (default 1). *)

val map_pairs :
  ?jobs:int ->
  ?tel:Disco_util.Telemetry.t ->
  ?dests_per_src:int ->
  pairs:int ->
  seed:int ->
  Disco_util.Rng.t ->
  Disco_graph.Graph.t ->
  (src:int -> dst:int -> dist:float -> 'b) ->
  'b array
(** [draw_pairs] + {!map_groups}. *)

type sampled = {
  router : string;
  flat_names : string;
  first : float array;  (** first-packet stretch samples *)
  later : float array;
  first_failures : int;  (** first-packet walks that were not delivered *)
  later_failures : int;
  state : float array;  (** per-node state entries *)
  tel : Disco_util.Telemetry.snapshot;
      (** per-router counters, frozen at measurement end *)
  elapsed_s : float;  (** build + route time for this router *)
}

val sample_pairs :
  ?pairs:int ->
  ?dests_per_src:int ->
  ?purpose:int ->
  ?jobs:int ->
  ?tel:Disco_util.Telemetry.t ->
  routers:Protocol.packed list ->
  Testbed.t ->
  sampled list
(** Build every router over the testbed and measure them all on the same
    sampled pairs (RNG stream [purpose], default 11). With [jobs > 1]
    (default 1) the builds and the per-source tasks fan out over a domain
    pool; each task queries the built routers with private telemetry,
    so every field except [elapsed_s] (wall-clock) is independent of
    [jobs]. Per-router counters are merged into [tel] when given, and a
    {!Results} entry is recorded per router under the current figure. *)

val state_array : Protocol.packed -> Testbed.t -> float array
(** Build one router and collect its per-node state entries. *)

val find_sampled : string -> sampled list -> sampled option
