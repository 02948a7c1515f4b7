(** Greedy scenario minimization.

    Given a failing scenario, repeatedly try smaller variants — fewer
    nodes, fewer pairs, no churn, a simpler workload, a simpler family —
    keeping any variant on which [still_fails] holds, until no candidate
    fails. The seed is never changed, so the minimized scenario replays
    with the same [--replay] string.

    It spends at most 40 candidate runs (each one re-runs every router
    over a fresh testbed). *)

val candidates : Scenario.t -> Scenario.t list
(** Strictly-smaller variants of a scenario, most aggressive first. *)

val minimize :
  still_fails:(Scenario.t -> bool) -> Scenario.t -> Scenario.t * int
(** The minimized scenario and how many candidate runs were spent. *)
