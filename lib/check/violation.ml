module Json = Disco_util.Json

type kind =
  | Invalid_path of { phase : string; src : int; dst : int; reason : string }
  | Delivery_failure of { phase : string; src : int; dst : int }
  | Beats_oracle of { phase : string; src : int; dst : int; stretch : float }
  | Stretch_exceeded of {
      phase : string;
      src : int;
      dst : int;
      stretch : float;
      bound : float;
    }
  | Negative_state of { node : int; entries : int }
  | State_exceeded of { node : int; entries : int; bound : float }
  | Nondeterministic of { what : string }
  | Differential_mismatch of { other : string; src : int; dst : int; detail : string }
  | Churn_violation of { detail : string }
  | Walk_divergence of { phase : string; src : int; dst : int; detail : string }
  | Dataplane_error of { phase : string; src : int; dst : int; detail : string }
  | Fastpath_divergence of { phase : string; src : int; dst : int; detail : string }

type t = { scheme : string; kind : kind }

let describe_kind = function
  | Invalid_path { phase; src; dst; reason } ->
      Printf.sprintf "invalid %s-packet path %d->%d: %s" phase src dst reason
  | Delivery_failure { phase; src; dst } ->
      Printf.sprintf "%s-packet delivery failed for reachable pair %d->%d" phase src
        dst
  | Beats_oracle { phase; src; dst; stretch } ->
      Printf.sprintf
        "%s-packet route %d->%d shorter than the shortest path (stretch %.6f)" phase
        src dst stretch
  | Stretch_exceeded { phase; src; dst; stretch; bound } ->
      Printf.sprintf "%s-packet stretch %.4f > bound %.2f for %d->%d" phase stretch
        bound src dst
  | Negative_state { node; entries } ->
      Printf.sprintf "negative state (%d entries) at node %d" entries node
  | State_exceeded { node; entries; bound } ->
      Printf.sprintf "state %d entries > bound %.1f at node %d" entries bound node
  | Nondeterministic { what } -> Printf.sprintf "nondeterministic %s under a fixed seed" what
  | Differential_mismatch { other; src; dst; detail } ->
      Printf.sprintf "disagrees with %s on %d->%d: %s" other src dst detail
  | Churn_violation { detail } -> detail
  | Walk_divergence { phase; src; dst; detail } ->
      Printf.sprintf "%s-packet walk diverges from the oracle on %d->%d: %s"
        phase src dst detail
  | Dataplane_error { phase; src; dst; detail } ->
      Printf.sprintf "%s-packet data plane errored on %d->%d: %s" phase src
        dst detail
  | Fastpath_divergence { phase; src; dst; detail } ->
      Printf.sprintf "%s-packet fast path diverges from the typed walk on %d->%d: %s"
        phase src dst detail

let describe t = Printf.sprintf "[%s] %s" t.scheme (describe_kind t.kind)

let kind_label = function
  | Invalid_path _ -> "invalid-path"
  | Delivery_failure _ -> "delivery-failure"
  | Beats_oracle _ -> "beats-oracle"
  | Stretch_exceeded _ -> "stretch-exceeded"
  | Negative_state _ -> "negative-state"
  | State_exceeded _ -> "state-exceeded"
  | Nondeterministic _ -> "nondeterministic"
  | Differential_mismatch _ -> "differential-mismatch"
  | Churn_violation _ -> "churn-violation"
  | Walk_divergence _ -> "walk-divergence"
  | Dataplane_error _ -> "dataplane-error"
  | Fastpath_divergence _ -> "fastpath-divergence"

let to_json t =
  Json.Obj
    [
      ("scheme", Json.Str t.scheme);
      ("kind", Json.Str (kind_label t.kind));
      ("detail", Json.Str (describe_kind t.kind));
    ]
