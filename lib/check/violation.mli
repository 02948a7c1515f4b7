(** Invariant violations found by the disco-check runner.

    Each violation names the scheme it was observed on and carries enough
    detail to reproduce it by hand inside the replayed scenario. *)

type kind =
  | Invalid_path of { phase : string; src : int; dst : int; reason : string }
      (** a returned route is not a path from src to dst in the graph *)
  | Delivery_failure of { phase : string; src : int; dst : int }
      (** the scheme guarantees delivery but returned no route for a
          reachable pair *)
  | Beats_oracle of { phase : string; src : int; dst : int; stretch : float }
      (** route strictly shorter than the Dijkstra shortest path — the
          oracle and the routed graph disagree *)
  | Stretch_exceeded of {
      phase : string;
      src : int;
      dst : int;
      stretch : float;
      bound : float;
    }  (** stretch above the scheme's guarantee (preconditions held) *)
  | Negative_state of { node : int; entries : int }
  | State_exceeded of { node : int; entries : int; bound : float }
      (** per-node state above the scheme's bound (slack included) *)
  | Nondeterministic of { what : string }
      (** same seed produced different topology, routes, state or counters *)
  | Differential_mismatch of { other : string; src : int; dst : int; detail : string }
      (** two schemes required to agree (disco/nddisco later routes)
          produced different answers *)
  | Churn_violation of { detail : string }
      (** landmark hysteresis flipped inside a sub-factor-2 band *)
  | Walk_divergence of { phase : string; src : int; dst : int; detail : string }
      (** the hop-by-hop walk and the closed-form oracle (disco, nddisco,
          s4) disagree: on the delivery verdict or on weighted length *)
  | Dataplane_error of { phase : string; src : int; dst : int; detail : string }
      (** the walker hit a protocol error: [forward] returned a
          non-neighbor, delivered away from the destination, or refused
          its own header *)
  | Fastpath_divergence of { phase : string; src : int; dst : int; detail : string }
      (** the compiled zero-alloc walk ([ROUTER.compile] + [fast_walk])
          disagrees with the typed walk: different verdict, drop reason,
          or hop sequence (typed loop detection aside — the fast walker
          has none and must merely not deliver there) *)

type t = { scheme : string; kind : kind }

val describe : t -> string
(** One human-readable line. *)

val to_json : t -> Disco_util.Json.t
