(** Lightweight instrumentation counters threaded through the protocol
    surface ({!module:ROUTER} adapters), the sampled-pairs engine and the
    event simulator, so every experiment can report its cost uniformly.

    A [t] is a bag of mutable counters; sharing one across components
    accumulates, and {!add} merges per-router records into a per-figure
    one. Wall-clock access also lives here ({!now_s}) so the rest of the
    tree stays free of [Unix.gettimeofday] (disco-lint rule L1). *)

val now_s : unit -> float
(** Wall-clock seconds since the epoch. Only for timing telemetry and
    reports — never for protocol logic, which must be seed-deterministic. *)

type t = {
  mutable route_calls : int;  (** route_first/route_later invocations *)
  mutable route_failures : int;  (** routes that returned no path *)
  mutable resolution_fallbacks : int;
      (** first packets that fell back to the resolution database *)
  mutable messages_sent : int;  (** protocol messages on the simulator *)
  mutable sssp_runs : int;
      (** shortest-path computations by the engine's oracles; fills of
          the shared tree memo ([Landmark_trees]) are not counted *)
  mutable packets_walked : int;  (** data-plane walks executed *)
  mutable packets_delivered : int;  (** walks that reached the destination *)
  mutable packets_dropped : int;  (** walks dropped (TTL, loop, no route) *)
  mutable hops_forwarded : int;  (** individual forwarding decisions taken *)
  mutable header_rewrites : int;  (** in-flight header rewrites *)
  mutable header_bytes : int;  (** header bytes carried, summed per hop *)
}

val create : unit -> t
val route_call : t -> unit
val route_failure : t -> unit
val resolution_fallback : t -> unit
val message_sent : t -> unit
val sssp_run : t -> unit

val packet_walked :
  t -> delivered:bool -> hops:int -> rewrites:int -> header_bytes:int -> unit
(** Record one finished data-plane walk: its outcome, per-hop decision
    count, in-flight rewrites and total header bytes carried. *)

val add : into:t -> t -> unit
(** Accumulate [t]'s counters into [into]. *)

val merge : t list -> t
(** A fresh [t] holding the fold of every record in order. The merge is a
    plain sum, so it is independent of how work that produced the records
    was scheduled — this is the barrier step of the parallel engine. *)

type snapshot = {
  route_calls : int;
  route_failures : int;
  resolution_fallbacks : int;
  messages_sent : int;
  sssp_runs : int;
  packets_walked : int;
  packets_delivered : int;
  packets_dropped : int;
  hops_forwarded : int;
  header_rewrites : int;
  header_bytes : int;
}
(** An immutable read view. Results that outlive the run (e.g.
    [Engine.sampled]) carry a [snapshot], never the live mutable [t], so a
    later run reusing the accumulator cannot retroactively change reported
    numbers. *)

val snapshot : t -> snapshot
(** Copy the current counter values. *)

val to_string : t -> string
(** One-line [key=value] rendering for report trailers. *)

val snapshot_to_string : snapshot -> string
(** Same rendering for the immutable view. *)
