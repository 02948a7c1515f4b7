(* perfbench: run one named workload from a seed and print every metric
   by name and unit, after checking the outputs.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the result line carries the end-to-end metrics; with
   --trace 1 the per-layer ones, derived from spans recorded around the
   calls into each layer.  Load comes from one thread in a closed loop:
   the next packet is routed only after the previous one finishes.  The
   last stdout line is the result; the run record (metadata, metrics,
   gates, spans) is written under --out. *)

type workload = { name : string; n : int; flows : int; checked : int }

let workloads =
  [
    (* Flows are many, so that a tail percentile does not rest on the few
       slowest of them, which the seed redraws: p99 over 1024 flows is set
       by ten. *)
    { name = "disco-glp"; n = 4096; flows = 16384; checked = 1024 };
    { name = "disco-geo"; n = 4096; flows = 8192; checked = 256 };
    { name = "schemes-compare"; n = 2048; flows = 512; checked = 128 };
    { name = "churn"; n = 256; flows = 512; checked = 512 };
  ]

(* Identical set-ups per run; setup_s is their median. *)
let setups = 3

let run_workload name (p : Outcome.params) =
  match name with
  | "disco-glp" -> Static.run p Static.Disco_glp
  | "disco-geo" -> Static.run p Static.Disco_geo
  | "schemes-compare" -> Static.run p Static.Compare
  | _ -> Churn.run p

let meta ~(w : workload) ~(p : Outcome.params) ~rev =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"rev\": %S, \"ocaml\": %S, \"nproc\": %d, \
     \"jobs\": 1, \"load\": \"closed loop, one thread\", \"traced\": %b, \
     \"params\": {\"n\": %d, \"flows\": %d, \"checked\": %d, \"setups\": %d, \
     \"seconds\": %s}}"
    w.name p.seed rev Sys.ocaml_version
    (Domain.recommended_domain_count ())
    p.traced p.n p.flows p.checked p.setups (Emit.number p.seconds)

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let n = ref 0 and flows = ref 0 in
  let rev = ref "unknown" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1 = record spans, emit per-layer metrics");
      ("--n", Arg.Set_int n, " override the workload's node count (smoke tests)");
      ("--flows", Arg.Set_int flows, " override the workload's flow count (smoke tests)");
      ("--rev", Arg.Set_string rev, " source revision, for the run record");
      ("--out", Arg.Set_string out, " directory for run records");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let p_n = if !n > 0 then !n else w.n in
  let p_flows = if !flows > 0 then !flows else w.flows in
  let p =
    {
      Outcome.seed = !seed;
      n = p_n;
      flows = p_flows;
      checked = min w.checked p_flows;
      setups;
      seconds = !seconds;
      traced = !trace = 1;
    }
  in
  let meta = meta ~w ~p ~rev:!rev in
  print_endline ("{\"meta\": " ^ meta ^ "}");
  let o = run_workload w.name p in
  let e2e = Emit.create () and layers = Emit.create () in
  let measured = ("peak_rss_mb", Emit.peak_rss_mb ()) :: o.Outcome.e2e in
  List.iter
    (fun (name, unit) ->
      Emit.add e2e name unit (Option.value (List.assoc_opt name measured) ~default:nan))
    Declared.end_to_end;
  List.iter
    (fun (name, unit) ->
      Emit.add layers name unit (Option.value (List.assoc_opt name o.Outcome.layers) ~default:0.0))
    Declared.per_layer;
  let gates = ("metrics_finite", Emit.finite e2e && Emit.finite layers) :: o.Outcome.gates in
  let correct = List.for_all snd gates in
  let failed = if correct then o.Outcome.failed else o.Outcome.attempted in
  let shown = if p.traced then layers else e2e in
  (try
     if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
     let tag = if p.traced then "traced" else "untraced" in
     write_file
       (Filename.concat !out (Printf.sprintf "%s-seed%d-%s.json" w.name p.seed tag))
       (Printf.sprintf
          "{\"meta\": %s,\n\"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
           \"gates\": {%s},\n\"end_to_end\": {%s},\n\"end_to_end_unscaled\": {%s},\n\"per_layer\": {%s},\n\"windows\": {%s},\n\"spans\": %s}\n"
          meta correct o.Outcome.attempted failed
          (String.concat ", " (List.map (fun (g, ok) -> Printf.sprintf "%S: %b" g ok) gates))
          (Emit.metrics_json (Emit.metrics e2e))
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (Emit.number v)) o.Outcome.unscaled))
          (if p.traced then Emit.metrics_json (Emit.metrics layers) else "")
          o.Outcome.windows (Trace.to_json o.Outcome.trace))
   with Sys_error e -> Printf.eprintf "run record not written: %s\n" e);
  List.iter (fun (g, ok) -> if not ok then Printf.eprintf "check failed: %s\n" g) gates;
  print_endline
    (Emit.result_line ~correct ~attempted:o.Outcome.attempted ~failed (Emit.metrics shown));
  exit (if correct then 0 else 1)
