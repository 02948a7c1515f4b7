(** The disco-check case loop: generate scenarios, run them, shrink
    failures, and render the verdict.

    This module returns strings and records; printing is the binary's job
    (lib code stays stdout-free, disco-lint rule L4). *)

type counterexample = {
  original : Scenario.t;  (** the generated scenario that first failed *)
  minimized : Scenario.t;  (** after greedy shrinking (same seed) *)
  shrink_runs : int;  (** candidate runs the shrinker spent *)
  violations : Violation.t list;  (** violations of [minimized] *)
}

type summary = {
  run_seed : int;
  cases : int;
  max_nodes : int;
  schemes : string list;
  total_pairs : int;
  total_route_failures : int;
  counterexamples : counterexample list;
}

val run_cases :
  ?routers:Disco_experiments.Protocol.packed list ->
  ?spec_of:(string -> Spec.t) ->
  ?on_case:(case:int -> failed:bool -> unit) ->
  ?jobs:int ->
  run_seed:int ->
  cases:int ->
  max_nodes:int ->
  unit ->
  summary
(** Run cases [0 .. cases-1], each on the scenario
    [Scenario.generate ~run_seed ~case ~max_nodes]. [on_case] fires after
    each case (progress for the binary). [jobs] (default 1) spreads the
    cases over a {!Disco_util.Pool}; cases are independent by
    construction, shrinking stays inside its case's task, and [on_case]
    plus the merge run in case order at the barrier, so the summary is
    bit-identical for every [jobs] value. *)

val check_scenario :
  ?routers:Disco_experiments.Protocol.packed list ->
  Scenario.t ->
  counterexample option
(** Run one explicit scenario (the [--replay] path); [Some] iff it fails,
    shrunk like any generated case. *)

val passed : summary -> bool
val report : summary -> string
(** Human-readable multi-line verdict, including a replay command per
    counterexample. *)

val to_json : summary -> string
