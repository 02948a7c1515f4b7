(** Discrete event simulator.

    Drives the dynamic-protocol experiments: path-vector convergence and
    Disco's overlay dissemination (Fig 8), and synopsis-diffusion gossip.
    Nodes exchange messages over the links of a {!Disco_graph.Graph.t};
    delivery takes the link's weight (latency). Events at equal times fire
    in schedule order, so runs are fully deterministic.

    Message accounting matches the paper's metric: every protocol message
    sent counts once toward the run's total. *)

type 'msg t

val create :
  ?telemetry:Disco_util.Telemetry.t -> graph:Disco_graph.Graph.t -> unit -> 'msg t
(** [create ?telemetry ~graph ()] builds an empty simulator over [graph].
    When [telemetry] is given, every message send is also counted there
    (in addition to the simulator's own {!messages_sent} accounting). *)

val set_handler : 'msg t -> (int -> src:int -> 'msg -> unit) -> unit
(** [set_handler t f] installs the per-node message handler
    [f node ~src msg]; must be called before {!run}. Handlers may call
    {!send} and {!schedule}. *)

val time : _ t -> float
(** Current simulation time. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Send over a graph link (src and dst must be adjacent); counts one
    message and delivers after the link latency.
    @raise Invalid_argument if [src]–[dst] is not an edge. *)

val send_direct : 'msg t -> src:int -> dst:int -> latency:float -> 'msg -> unit
(** Overlay-bypass delivery for simulated TCP connections between
    non-adjacent nodes (Disco's overlay links); still counts one
    message. *)

val schedule : _ t -> delay:float -> (unit -> unit) -> unit
(** Run a callback after [delay] simulated time units. *)

val run : ?until:float -> _ t -> unit
(** Process events until the queue drains (convergence) or [until]. *)

val messages_sent : _ t -> int
(** Total messages sent so far. *)
