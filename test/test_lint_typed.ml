(* The typed pass (L7/L8/L9/L10) against the fixture project in
   typed_fixtures/: each rule fires on its positive fixture, stays quiet on
   the negative one, respects inline waivers, and crosses function
   boundaries.  Plus the manifest pin: Hot_manifest must name exactly one
   data-plane forward per scheme in the live router registry, so adding a
   scheme without extending the alloc discipline fails here. *)

module Driver = Lint.Driver
module Diagnostic = Lint.Diagnostic

(* The fixture library is linked into this test binary, so dune has built
   its .cmt files next to us (cwd is _build/default/test). *)
let summary =
  lazy
    (match
       Lint.Typed_driver.run
         ~build_dir:"typed_fixtures" ~source_root:".."
         ~roots:[ "test/typed_fixtures" ] ()
     with
    | Error e -> failwith ("typed fixture load failed: " ^ e)
    | Ok (_units, s) -> s)

let diags_in file =
  List.filter
    (fun d -> String.equal (Filename.basename d.Diagnostic.file) file)
    (Lazy.force summary).Driver.diagnostics

let rules_in file =
  List.sort_uniq String.compare
    (List.map (fun d -> d.Diagnostic.rule) (diags_in file))

let fires rule file () =
  Alcotest.(check bool)
    (rule ^ " fires on " ^ file)
    true
    (List.mem rule (rules_in file))

let quiet file () =
  Alcotest.(check (list string)) ("no findings in " ^ file) [] (rules_in file)

let transitive_names_chain () =
  (* The l7_trans finding must point at the hot entry and blame the helper. *)
  match diags_in "l7_trans.ml" with
  | [] -> Alcotest.fail "expected a transitive L7 finding"
  | d :: _ ->
      Alcotest.(check bool)
        "message blames the helper" true
        (Option.is_some (Lint.Waivers.find_sub d.Diagnostic.message "build"))

let every_positive_is_error () =
  let s = Lazy.force summary in
  Alcotest.(check bool) "positives reported" true (s.Driver.errors >= 5);
  Alcotest.(check int) "nothing demoted" 0 s.Driver.warnings

let manifest_pins_registry () =
  let schemes = List.sort String.compare (Disco_experiments.Routers.names ()) in
  let manifest =
    List.sort String.compare
      (List.map fst Lint.Hot_manifest.forward_of_scheme)
  in
  Alcotest.(check (list string))
    "one manifest forward per registered scheme" schemes manifest;
  Alcotest.(check int) "eight registered schemes" 8 (List.length schemes)

let manifest_pins_fast_registry () =
  (* The compiled face carries the same discipline: every registered
     scheme must name its fast_step on the hot manifest, so a scheme
     gaining [compile] without the alloc proof fails here. *)
  let schemes = List.sort String.compare (Disco_experiments.Routers.names ()) in
  let manifest =
    List.sort String.compare (List.map fst Lint.Hot_manifest.fast_of_scheme)
  in
  Alcotest.(check (list string))
    "one manifest fast step per registered scheme" schemes manifest;
  List.iter
    (fun (_, path) ->
      Alcotest.(check bool) (path ^ " names a fast step") true
        (Option.is_some (Lint.Waivers.find_sub path "fast_step")))
    Lint.Hot_manifest.fast_of_scheme

let typed_catalogue_sane () =
  let ids = List.map (fun r -> r.Lint.Rules.id) Lint.Typed_rules.catalogue in
  Alcotest.(check (list string)) "typed rules" [ "L7"; "L8"; "L9"; "L10"; "H0" ] ids

(* --- L10 over the fixture tree ---------------------------------------------

   The repo layout roots L10 in bin/, bench/, examples/ and perfbench/ and
   reports on lib/; the fixture layout maps the same roles onto
   typed_fixtures/: the two executables are roots, l10_lib.ml the subject. *)

let fixtures = "test/typed_fixtures/"

let l10_units =
  lazy
    (match
       Lint.Typed_load.load ~build_dir:"typed_fixtures" ~roots:[ fixtures ]
     with
    | Ok units -> units
    | Error e -> failwith ("typed fixture load failed: " ^ e))

let l10_messages =
  lazy
    (let layout =
       {
         Lint.Typed_rules.is_root =
           Lint.Typed_rules.under
             [ fixtures ^ "l10_exe_a"; fixtures ^ "l10_exe_b" ];
         is_subject = String.equal (fixtures ^ "l10_lib.ml");
       }
     in
     Lint.Typed_rules.l10_findings ~layout
       ~kept:(Lint.Typed_driver.waives ~source_root:".." ~rule:"L10")
       (Lint.Callgraph.build (Lazy.force l10_units))
     |> List.map (fun f -> f.Lint.Typed_rules.message))

let l10_mentions sub =
  List.exists
    (fun m -> Option.is_some (Lint.Waivers.find_sub m sub))
    (Lazy.force l10_messages)

let l10_reports what sub () =
  Alcotest.(check bool) (what ^ " reported") true (l10_mentions sub)

let l10_spares what sub () =
  Alcotest.(check bool) (what ^ " not reported") false (l10_mentions sub)

let l10_exactly_two () =
  Alcotest.(check (list string))
    "the unreached definition and the omitted optional"
    [
      "Lint_fixtures_typed.L10_lib.unused is not reached from any executable, \
       top-level effect or packed module";
      "optional argument ?scale of Lint_fixtures_typed.L10_lib.omitted is \
       never passed by reached code";
    ]
    (Lazy.force l10_messages)

let l10_loads_by_source () =
  (* Both executables' main modules are Dune__exe__Main: loading by unit
     name would keep one and drop the other's calls. *)
  let mains =
    List.filter
      (fun u -> String.equal u.Lint.Typed_load.u_modname "Dune__exe__Main")
      (Lazy.force l10_units)
  in
  Alcotest.(check (list string)) "both mains loaded"
    [ fixtures ^ "l10_exe_a/main.ml"; fixtures ^ "l10_exe_b/main.ml" ]
    (List.map (fun u -> u.Lint.Typed_load.u_source) mains)

let suite =
  let test name fn = Alcotest.test_case name `Quick fn in
  [
    test "L7 fires on direct allocation" (fires "L7" "l7_pos.ml");
    test "L7 quiet on clean hot code" (quiet "l7_neg.ml");
    test "L7 waiver suppresses the finding" (quiet "l7_waived.ml");
    test "L7 crosses function boundaries" (fires "L7" "l7_trans.ml");
    test "L7 fires on an allocating fast step" (fires "L7" "l7_fastpath_pos.ml");
    test "L7 transitive finding blames the helper" transitive_names_chain;
    test "L9 fires on raising hot code" (fires "L9" "l9_pos.ml");
    test "L9 quiet when wrapped in try" (quiet "l9_neg.ml");
    test "L8 fires on task-reachable mutable state" (fires "L8" "l8_pos.ml");
    test "L8 quiet under Pool.Memo / task-local state" (quiet "l8_neg.ml");
    test "L8 fires on a workspace shared by tasks" (fires "L8" "l8_ws_pos.ml");
    test "positives are errors" every_positive_is_error;
    test "manifest pins the router registry" manifest_pins_registry;
    test "manifest pins the fast registry" manifest_pins_fast_registry;
    test "typed catalogue sane" typed_catalogue_sane;
    test "L10 reports an unreached definition"
      (l10_reports "unused" "L10_lib.unused ");
    test "L10 reports an omitted optional argument"
      (l10_reports "?scale of omitted" "?scale of Lint_fixtures_typed.L10_lib.omitted");
    test "L10 counts an explicit ?x:None as passed"
      (l10_spares "explicit_none" "explicit_none");
    test "L10 roots a module packed as a value"
      (l10_spares "behind_pack" "behind_pack");
    test "L10 roots a top-level effect" (l10_spares "from_effect" "from_effect");
    test "L10 loads executables by source path" l10_loads_by_source;
    test "L10 reaches both same-named executables"
      (l10_spares "only_from_b" "only_from_");
    test "L10 never reports a task closure" (l10_spares "task entries" "<task@");
    test "L10 waiver keeps what it uses" (l10_spares "kept_helper" "kept_helper");
    test "L10 reports nothing else" l10_exactly_two;
  ]
