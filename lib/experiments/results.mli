(** Machine-readable per-figure/per-router summaries.

    The sampled-pairs engine records one {!entry} per router it measures,
    tagged with the figure set by {!set_figure}; figure runners append a
    figure-level entry (router ["_figure"]) with elapsed wall-clock and
    message totals. [bench/main.exe --json out.json] serializes the store
    so the perf trajectory can be tracked across PRs. *)

type entry = {
  figure : string;
  router : string;  (** a registry name, or ["_figure"] for totals *)
  samples : int;
  stretch_first_mean : float;  (** NaN encodes "not measured" -> null *)
  stretch_first_max : float;
  stretch_later_mean : float;
  stretch_later_max : float;
  state_mean : float;
  state_max : float;
  failures : int;
  route_calls : int;
  resolution_fallbacks : int;
  messages : int;
  elapsed_s : float;
}

val reset : unit -> unit
val set_figure : string -> unit
val current_figure : unit -> string
val record : entry -> unit
val all : unit -> entry list

val to_json : unit -> string
(** The whole store as a JSON array of flat objects, one per line.  A NaN
    field prints as [null]. *)

val write_json : string -> unit
