(* What a workload run hands back to [Main]. *)

type params = {
  seed : int;
  n : int;
  flows : int;  (* distinct flows (or query pairs) routed in the loop *)
  checked : int;  (* flows on which outputs are checked against oracles *)
  setups : int;  (* identical set-ups per run; setup_s is their median *)
  seconds : float;
  traced : bool;
}

type t = {
  e2e : (string * float) list;
  unscaled : (string * float) list;  (* e2e timings before host scaling, and the slowdown *)
  layers : (string * float) list;  (* empty unless traced *)
  attempted : int;
  failed : int;  (* packets or queries whose outcome failed a check *)
  gates : (string * bool) list;
  trace : Trace.t;
  windows : string;  (* per-window figures, JSON members *)
}
