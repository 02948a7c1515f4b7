(** Replayable test scenarios for disco-check.

    A scenario is the entire input of one property-based test case:
    topology family, size, workload shape and churn schedule. Everything
    downstream (the graph, the sampled pairs, the churn schedule) is drawn
    from SplitMix64 streams derived from the single [seed] field, so a
    scenario — including a shrunk counterexample — replays bit-for-bit
    from its textual form ({!to_string} / {!of_string}). *)

type family =
  | Gnm  (** G(n,m) with m = 4n, unit weights *)
  | Geometric  (** random geometric, Euclidean (latency) weights *)
  | As_level  (** preferential attachment, attach = 2 *)
  | Router_level  (** preferential attachment, attach = 3 + 10% mesh edges *)
  | Ring  (** cycle: worst case for explicit-route length *)
  | Grid  (** 2-D mesh *)
  | Star  (** star-of-stars: the S4 footnote-6 worst case *)

type workload =
  | Uniform  (** src and dst uniform over all nodes *)
  | Local  (** dst drawn from the source's truncated-Dijkstra ball *)
  | Hotspot  (** every source routes to one shared destination *)

type t = {
  seed : int;  (** master seed; every random draw derives from it *)
  family : family;
  n : int;  (** requested size (Grid/Star round down to their shape) *)
  pairs : int;  (** number of src/dst workload pairs *)
  workload : workload;
  churn_steps : int;  (** landmark-churn schedule length; 0 = none *)
}

val min_nodes : int
(** Smallest requested [n] the generator and shrinker will produce. *)

val all_families : family list
val family_name : family -> string
val family_of_string : string -> family option

val all_workloads : workload list
val workload_name : workload -> string
val workload_of_string : string -> workload option

val churn_schedule_purpose : int
(** Derivation purpose for the churn size schedule (see {!Runner}). *)

val churn_population_purpose : int
(** Derivation purpose for the churn node population's coin flips. *)

val generate : run_seed:int -> case:int -> max_nodes:int -> t
(** The scenario for case number [case] of a run: all dimensions drawn
    from [Disco_util.Rng.derive run_seed case]. *)

val graph : t -> Disco_graph.Graph.t
(** Materialize the (connected) topology. Deterministic in [t]. *)

val draw_pairs : t -> Disco_graph.Graph.t -> (int * int) list
(** The workload: [pairs] source/destination pairs with [src <> dst],
    drawn per [workload]. Deterministic in [t]. *)

val to_string : t -> string
(** Canonical [key=value,...] form, accepted by {!of_string} and by
    [disco_check --replay]. *)

val of_string : string -> (t, string) result
val to_json : t -> Disco_util.Json.t

val replay_command : t -> string
(** The exact shell command that re-runs just this scenario. *)
