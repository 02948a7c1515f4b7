(* Wall-clock reads live here (disco-lint L1 allowlist) so protocol code
   stays bit-deterministic under a seed: [now_s] may feed timing telemetry
   and reports, never routing or sampling decisions. *)
let now_s () = Unix.gettimeofday ()

type t = {
  mutable route_calls : int;
  mutable route_failures : int;
  mutable resolution_fallbacks : int;
  mutable messages_sent : int;
  mutable sssp_runs : int;
  mutable packets_walked : int;
  mutable packets_delivered : int;
  mutable packets_dropped : int;
  mutable hops_forwarded : int;
  mutable header_rewrites : int;
  mutable header_bytes : int;
}

let create () =
  {
    route_calls = 0;
    route_failures = 0;
    resolution_fallbacks = 0;
    messages_sent = 0;
    sssp_runs = 0;
    packets_walked = 0;
    packets_delivered = 0;
    packets_dropped = 0;
    hops_forwarded = 0;
    header_rewrites = 0;
    header_bytes = 0;
  }

let route_call t = t.route_calls <- t.route_calls + 1
let route_failure t = t.route_failures <- t.route_failures + 1
let resolution_fallback t = t.resolution_fallbacks <- t.resolution_fallbacks + 1
let message_sent t = t.messages_sent <- t.messages_sent + 1
let sssp_run t = t.sssp_runs <- t.sssp_runs + 1

let packet_walked t ~delivered ~hops ~rewrites ~header_bytes =
  t.packets_walked <- t.packets_walked + 1;
  if delivered then t.packets_delivered <- t.packets_delivered + 1
  else t.packets_dropped <- t.packets_dropped + 1;
  t.hops_forwarded <- t.hops_forwarded + hops;
  t.header_rewrites <- t.header_rewrites + rewrites;
  t.header_bytes <- t.header_bytes + header_bytes

let add ~into t =
  into.route_calls <- into.route_calls + t.route_calls;
  into.route_failures <- into.route_failures + t.route_failures;
  into.resolution_fallbacks <- into.resolution_fallbacks + t.resolution_fallbacks;
  into.messages_sent <- into.messages_sent + t.messages_sent;
  into.sssp_runs <- into.sssp_runs + t.sssp_runs;
  into.packets_walked <- into.packets_walked + t.packets_walked;
  into.packets_delivered <- into.packets_delivered + t.packets_delivered;
  into.packets_dropped <- into.packets_dropped + t.packets_dropped;
  into.hops_forwarded <- into.hops_forwarded + t.hops_forwarded;
  into.header_rewrites <- into.header_rewrites + t.header_rewrites;
  into.header_bytes <- into.header_bytes + t.header_bytes

let merge ts =
  let into = create () in
  List.iter (fun t -> add ~into t) ts;
  into

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

let snapshot (t : t) =
  {
    route_calls = t.route_calls;
    route_failures = t.route_failures;
    resolution_fallbacks = t.resolution_fallbacks;
    messages_sent = t.messages_sent;
    sssp_runs = t.sssp_runs;
    packets_walked = t.packets_walked;
    packets_delivered = t.packets_delivered;
    packets_dropped = t.packets_dropped;
    hops_forwarded = t.hops_forwarded;
    header_rewrites = t.header_rewrites;
    header_bytes = t.header_bytes;
  }

let snapshot_to_string (s : snapshot) =
  Printf.sprintf
    "route_calls=%d failures=%d fallbacks=%d messages=%d sssp_runs=%d \
     walks=%d delivered=%d dropped=%d hops=%d rewrites=%d header_bytes=%d"
    s.route_calls s.route_failures s.resolution_fallbacks s.messages_sent
    s.sssp_runs s.packets_walked s.packets_delivered s.packets_dropped
    s.hops_forwarded s.header_rewrites s.header_bytes

let to_string t = snapshot_to_string (snapshot t)
