(** Plain-text rendering of figures and tables.

    Every figure is printed as labelled gnuplot-style series ("label x y"
    rows) so the output of the bench harness diffs cleanly and can be
    re-plotted; tables are aligned text. *)

val section : string -> unit
(** Print a '== title ==' separator. *)

val kv : string -> string -> unit
(** Print an indented "key: value" line. *)

val cdf_series : label:string -> float array -> unit
(** Print an empirical CDF of the samples as 20 "label value fraction"
    rows. *)

val summary_line : label:string -> float array -> unit
(** One-line mean/p50/p95/max summary of a sample. *)

val table : header:string list -> string list list -> unit
(** Aligned text table. *)

val series_point : label:string -> x:float -> y:float -> unit
