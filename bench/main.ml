(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
   for paper-vs-measured). Usage:

     dune exec bench/main.exe                        # all figures, small scale
     dune exec bench/main.exe -- --figure fig3       # one figure
     dune exec bench/main.exe -- --scale paper       # paper-size topologies
     dune exec bench/main.exe -- --figure micro      # Bechamel micro-benches
     dune exec bench/main.exe -- --json out.json     # machine-readable summary
*)

open Cmdliner
module Figures = Disco_experiments.Figures
module Results = Disco_experiments.Results
module Cli = Disco_experiments.Cli
module Alloc = Disco_bench.Alloc
module Scaling = Disco_bench.Scaling

let run figure scale seed jobs json baseline =
  Results.reset ();
  match figure with
  | "alloc" -> (
      (* Alloc mode owns its output: --json snapshots the alloc table
         (BENCH_alloc.json), not the per-figure Results summary;
         --baseline gates words/hop against a committed snapshot. *)
      try
        Alloc.run ?json ?baseline ~seed scale;
        `Ok ()
      with Sys_error e -> `Error (false, e))
  | "scaling" -> (
      (* Decade sweep with its own checkpoint file: --json names it
         (default BENCH_scaling.json); an existing file resumes the
         sweep.  Exits nonzero if disco/nddisco state outgrows ~sqrt n. *)
      try
        Scaling.run ?json ~seed scale;
        `Ok ()
      with Sys_error e -> `Error (false, e))
  | _ -> (
      (match figure with
      | "all" ->
          Figures.run_all ~seed ~jobs scale;
          Micro.run ()
      | "micro" -> Micro.run ()
      | id -> Figures.run ~seed ~jobs scale id);
      match json with
      | Some path -> (
          try
            Results.write_json path;
            Printf.printf "wrote %s\n" path;
            `Ok ()
          with Sys_error e -> `Error (false, e))
      | None -> `Ok ())

let json =
  let doc = "Write per-figure/per-router summary statistics as JSON." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let baseline =
  let doc =
    "Committed BENCH_alloc.json to gate against (alloc figure only): exit \
     nonzero if any row's words/hop regresses more than 20%."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "Regenerate the Disco paper's evaluation figures and tables" in
  let info = Cmd.info "disco-bench" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Cli.figure_term
            ~extra:[ "all"; "micro"; "alloc"; "scaling" ]
            ~default:"all" ()
        $ Cli.scale_term $ Cli.seed_term $ Cli.jobs_term $ json $ baseline))

let () = exit (Cmd.eval cmd)
