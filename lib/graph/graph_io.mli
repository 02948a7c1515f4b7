(** Plain-text edge-list serialization.

    Format: first line [n <nodes>], then one line [u v w] per undirected
    edge. Lines starting with [#] are comments. Lets users run the harness
    on their own topologies (e.g. a real CAIDA snapshot if they have one). *)

val to_channel : out_channel -> Graph.t -> unit
val to_file : string -> Graph.t -> unit

val of_channel : in_channel -> Graph.t
(** @raise Failure on malformed input. *)

val of_file : string -> Graph.t

val of_string : string -> Graph.t
val to_string : Graph.t -> string

val to_dot : ?highlight:int list -> Graph.t -> string
(** Graphviz rendering, nodes labelled by id: [highlight] paints a route
    (consecutive nodes get red edges). Useful with the
    [disco-sim trace] output for visual debugging. *)
