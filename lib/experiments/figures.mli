(** One runner per table/figure of the paper's evaluation (§5).

    The runner bodies live in the [Fig_*] modules (one module per group of
    related figures); this module is the registry mapping figure ids to
    them and the shared per-run bookkeeping. Each run gets a fresh
    {!Disco_util.Telemetry} record (threaded through the engine and the
    simulator), is timed, and appends a figure-level {!Results} entry plus
    a ["cost"] trailer line to stdout.

    Each runner prints its figure's series/rows to stdout (see
    {!Report}); EXPERIMENTS.md records the paper-vs-measured comparison.
    [scale] trades fidelity for runtime: [Small] shrinks topologies so the
    whole suite finishes in minutes; [Paper] uses the paper's sizes where
    feasible (the two CAIDA maps are replaced by synthetics at 16k nodes —
    see DESIGN.md §2). *)

type scale = Scale.t = Small | Paper

val all_ids : string list

val run : ?seed:int -> ?jobs:int -> scale -> string -> unit
(** [run scale id] executes one experiment; raises [Invalid_argument] on
    an unknown id. [jobs] (default 1) is the runner's parallelism budget
    ({!Engine.config}); measured values are identical for every value. *)

val run_all : ?seed:int -> ?jobs:int -> scale -> unit
