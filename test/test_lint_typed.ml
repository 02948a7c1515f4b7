(* The typed pass (L7/L8/L9) against the fixture project in
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
       Lint.Typed_driver.run ~check_manifest:false
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
  Alcotest.(check (list string)) "typed rules" [ "L7"; "L8"; "L9"; "H0" ] ids

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
  ]
