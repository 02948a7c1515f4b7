(** Execute a registered scheme's data plane with the shared walker.

    This is the single packet walker behind the engine, the figures and
    [disco-sim trace]: build the scheme's header at the source, run its
    {!Protocol.ROUTER.forward} hop by hop under the scheme's TTL budget,
    record the walk on the telemetry (walk/delivery/hop/rewrite/byte
    counters, plus a resolution fallback when the trace shows one), and
    return the result. Disco, NDDisco and S4 also keep a closed-form
    {!Protocol.ROUTER.oracle}, which disco-check diffs against their
    walks; everything user-facing routes through here. *)

val first_trace :
  (module Protocol.ROUTER with type t = 'a) ->
  'a ->
  tel:Disco_util.Telemetry.t ->
  graph:Disco_graph.Graph.t ->
  src:int ->
  dst:int ->
  Disco_core.Dataplane.trace
(** Walk a first packet (flat-name delivery, lookup detours included). *)

val later_trace :
  (module Protocol.ROUTER with type t = 'a) ->
  'a ->
  tel:Disco_util.Telemetry.t ->
  graph:Disco_graph.Graph.t ->
  src:int ->
  dst:int ->
  Disco_core.Dataplane.trace
(** Walk a packet after the first exchange taught the source its cache. *)

val first :
  (module Protocol.ROUTER with type t = 'a) ->
  'a ->
  tel:Disco_util.Telemetry.t ->
  graph:Disco_graph.Graph.t ->
  src:int ->
  dst:int ->
  int list option
(** {!first_trace}'s node path when delivered, [None] otherwise — the
    walker-backed replacement for the old [route_first] surface. *)

val later :
  (module Protocol.ROUTER with type t = 'a) ->
  'a ->
  tel:Disco_util.Telemetry.t ->
  graph:Disco_graph.Graph.t ->
  src:int ->
  dst:int ->
  int list option

val path_of : Disco_core.Dataplane.trace -> int list option
(** The walk's node path when delivered, [None] otherwise. *)

val fell_back : Disco_core.Dataplane.trace -> bool
(** Did the walk include a resolution-database detour
    ({!Dataplane.Resolution_via})? *)
