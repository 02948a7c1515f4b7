(* disco-check: seeded property-based + differential testing of every
   registered router.

     disco-check --seed 42 --cases 200
     disco-check --seed 42 --cases 200 --max-nodes 96 --scheme disco
     disco-check --replay 'seed=123,family=gnm,n=32,pairs=4,workload=uniform,churn=0'
     disco-check --cases 2000 --json --out report.json

   Exit status: 0 when no invariant violation was found; 1 when one was
   (the report then includes, per counterexample, the shrunk scenario and
   the exact command that replays it); 124 on a command-line error, such as
   an unknown --scheme or a malformed --replay scenario, or when the report
   cannot be written. *)

open Cmdliner
module Check = Disco_check
module Protocol = Disco_experiments.Protocol
module Routers = Disco_experiments.Routers

let seed_arg = Disco_experiments.Cli.seed_term
let jobs_arg = Disco_experiments.Cli.jobs_term

let cases_arg =
  Arg.(value & opt int 50
       & info [ "cases" ] ~docv:"N" ~doc:"Number of generated scenarios to run.")

let max_nodes_arg =
  Arg.(value & opt int 128
       & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Largest topology size the generator may draw.")

(* Shared with disco-sim: one scheme vocabulary, plus "all". *)
let scheme_arg = Disco_experiments.Cli.scheme_term ~extra:[ "all" ] ~default:"all" ()

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit the machine-readable JSON summary.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Also write the JSON summary to $(docv).")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"SCENARIO"
           ~doc:"Run one explicit scenario (the key=value form a failure \
                 report prints) instead of generating cases.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-case progress dots.")

(* The term already validated the name against the registry. *)
let routers_for = function
  | "all" -> Routers.all ()
  | name -> [ Routers.find_exn name ]

let emit ~json ~out summary =
  let js = Check.Harness.to_json summary in
  match
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc js;
        output_char oc '\n';
        close_out oc
    | None -> ()
  with
  | () ->
      if json then print_endline js else print_string (Check.Harness.report summary);
      Ok ()
  | exception Sys_error e -> Error (Printf.sprintf "cannot write report: %s" e)

let violations_exit = 1

let verdict ~passed =
  if passed then `Ok Cmd.Exit.ok
  else begin
    prerr_endline "disco-check: invariant violations found";
    `Ok violations_exit
  end

let run seed cases max_nodes scheme json out replay quiet jobs =
  let routers = routers_for scheme in
  (
      match replay with
      | Some desc -> (
          match Check.Scenario.of_string desc with
          | Error e -> `Error (false, Printf.sprintf "bad --replay scenario: %s" e)
          | Ok sc ->
              let cx = Check.Harness.check_scenario ~routers sc in
              let counterexamples = Option.to_list cx in
              let summary =
                {
                  Check.Harness.run_seed = sc.Check.Scenario.seed;
                  cases = 1;
                  max_nodes = sc.Check.Scenario.n;
                  schemes = List.map Protocol.name_of routers;
                  total_pairs = sc.Check.Scenario.pairs;
                  total_route_failures = 0;
                  counterexamples;
                }
              in
              match emit ~json ~out summary with
              | Error e -> `Error (false, e)
              | Ok () -> verdict ~passed:(counterexamples = []))
      | None ->
          let on_case ~case ~failed =
            if not (quiet || json) then begin
              print_char (if failed then 'X' else '.');
              if (case + 1) mod 50 = 0 then Printf.printf " %d\n" (case + 1);
              flush stdout
            end
          in
          let summary =
            Check.Harness.run_cases ~routers ~on_case ~jobs ~run_seed:seed ~cases
              ~max_nodes ()
          in
          if not (quiet || json) then print_newline ();
          match emit ~json ~out summary with
          | Error e -> `Error (false, e)
          | Ok () -> verdict ~passed:(Check.Harness.passed summary))

let cmd =
  let doc = "Property-based invariant checking for every registered router" in
  let exits =
    Cmd.Exit.info violations_exit ~doc:"when an invariant violation was found."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "disco-check" ~doc ~exits)
    Term.(
      ret
        (const run $ seed_arg $ cases_arg $ max_nodes_arg $ scheme_arg $ json_arg
       $ out_arg $ replay_arg $ quiet_arg $ jobs_arg))

let () = exit (Cmd.eval' cmd)
