(* The figure registry: each runner body lives in its own fig_* module;
   this file only knows their names, their order, and the bookkeeping
   every run shares (telemetry, wall-clock, the Results store). *)

module Telemetry = Disco_util.Telemetry

type scale = Scale.t = Small | Paper

let runners : (string * (Engine.config -> unit)) list =
  [
    ("fig1", Fig_compare.fig1);
    ("header", Fig_address.header);
    ("vicinity", Fig_stretch.vicinity);
    ("fig2", Fig_state.fig2);
    ("state", Fig_state.state);
    ("fig3", Fig_stretch.fig3);
    ("fig4", Fig_vrr.fig4);
    ("fig5", Fig_vrr.fig5);
    ("fig6", Fig_stretch.fig6);
    ("fig7", Fig_state.fig7);
    ("fig8", Fig_messaging.fig8);
    ("fig9", Fig_scaling.fig9);
    ("fig10", Fig_congestion.fig10);
    ("addr", Fig_address.addr);
    ("overlay", Fig_messaging.overlay);
    ("nerror", Fig_estimation.nerror);
    ("synopsis", Fig_estimation.synopsis);
    ("churn", Fig_estimation.churn);
    ("policy", Fig_control.policy);
    ("control", Fig_control.control);
    ("dynamics", Fig_dynamics.dynamics);
    ("tradeoff", Fig_scaling.tradeoff);
    ("fate", Fig_congestion.fate);
  ]

let all_ids = List.map fst runners

let run_one ~seed ~jobs scale id f =
  Results.set_figure id;
  let tel = Telemetry.create () in
  let cfg = { Engine.seed; scale; jobs; tel } in
  let t0 = Engine.now () in
  f cfg;
  let elapsed = Engine.now () -. t0 in
  Results.record
    {
      Results.figure = id;
      router = "_figure";
      samples = 0;
      stretch_first_mean = Float.nan;
      stretch_first_max = Float.nan;
      stretch_later_mean = Float.nan;
      stretch_later_max = Float.nan;
      state_mean = Float.nan;
      state_max = Float.nan;
      failures = tel.Telemetry.route_failures;
      route_calls = tel.Telemetry.route_calls;
      resolution_fallbacks = tel.Telemetry.resolution_fallbacks;
      messages = tel.Telemetry.messages_sent;
      elapsed_s = elapsed;
    };
  Report.kv "cost"
    (Printf.sprintf "%.1fs; %s" elapsed (Telemetry.to_string tel))

let run ?(seed = 42) ?(jobs = 1) scale id =
  match List.assoc_opt id runners with
  | Some f -> run_one ~seed ~jobs scale id f
  | None -> invalid_arg (Printf.sprintf "Figures.run: unknown figure %S" id)

let run_all ?(seed = 42) ?(jobs = 1) scale =
  List.iter (fun (id, f) -> run_one ~seed ~jobs scale id f) runners
