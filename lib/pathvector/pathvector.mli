(** Distributed path-vector routing over the event simulator.

    §4.2 of the paper: "Nodes learn shortest paths to landmarks and
    vicinities via a single, standard path vector routing protocol. When
    learning paths, a route announcement is accepted into v's routing table
    if and only if the route's destination is a landmark or one of the
    Θ(sqrt(n log n)) closest nodes currently advertised to v."

    The same engine, with different acceptance policies, yields:
    - plain path vector (the paper's baseline, Fig 8),
    - NDDisco's landmark + vicinity tables,
    - S4's landmark + cluster tables (acceptance bounded by the origin's
      distance to its landmark, carried in the announcement).

    Messaging cost is measured by the simulator: one route announcement to
    one neighbor = one message, as in Fig 8. *)

type mode =
  | Full  (** accept a best route for every destination *)
  | Landmarks_and_k_closest of { landmarks : bool array; k : int }
      (** NDDisco: keep landmarks plus the [k] closest destinations
          currently advertised, by {!Admission.admit} as
          [Disco_dynamic.Network] does. A route reaches a node at the time
          equal to its length (all originate at t = 0, a message takes its
          link's weight), so routes arrive in nondecreasing distance and
          this engine never evicts. *)
  | Landmarks_and_radius of { landmarks : bool array; radius : float array }
      (** S4: keep landmarks plus destinations [w] with
          [d(v,w) < radius.(w)] where [radius.(w) = d(w, l_w)]. *)

type route = { dist : float; path : int list  (** self .. dest, inclusive *) }

type result = {
  tables : (int, route) Hashtbl.t array;  (** per node: dest -> route *)
  total_messages : int;
  adj_rib_entries : int array;
      (** per node: control-plane entries a non-forgetful implementation
          would hold — every (neighbor, destination) pair for which an
          announcement was retained, the Θ(δ·entries) term of Theorem 2.
          The data plane itself is forgetful (only best routes are kept);
          this counter measures what forgetting saves. *)
}

val run :
  ?telemetry:Disco_util.Telemetry.t ->
  graph:Disco_graph.Graph.t ->
  mode:mode ->
  unit ->
  result
(** Run to convergence (event queue drains) and return the tables. When
    [telemetry] is given, every simulator message also counts there. *)

val table_sizes : result -> int array
(** Routing-table entry count per node, for state comparisons. *)
