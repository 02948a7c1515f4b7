(** Summary statistics and CDFs for the evaluation harness.

    The paper reports results as CDFs over nodes / source-destination pairs /
    edges, plus mean/max tables. These helpers compute those summaries from
    raw samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Full summary of a non-empty sample array (the array is not modified). *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0,1]; nearest-rank on a sorted
    array. *)

val mean : float array -> float

val cdf_points : float array -> int -> (float * float) list
(** [cdf_points samples k] returns up to [k] [(value, fraction <= value)]
    points of the empirical CDF, suitable for printing a figure series. *)
