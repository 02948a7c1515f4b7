(* disco-lint engine: each rule L1-L6 must fire on its positive fixture and
   stay quiet on its negative one; waivers suppress exactly the named rule;
   path scoping keeps the report/driver layers exempt. *)

module Driver = Lint.Driver
module Diagnostic = Lint.Diagnostic
module Rules = Lint.Rules

let fixture name =
  let ic = open_in_bin (Filename.concat "lint_fixtures" name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Lint a fixture as if it lived at [path] (default: deep in protocol core,
   where every rule applies). *)
let lint ?(path = "lib/core/fixture.ml") name =
  Driver.lint_source ~path (fixture name)

let rules_of ds =
  List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.rule) ds)

let check_fires rule name () =
  let hit = rules_of (lint name) in
  Alcotest.(check bool)
    (rule ^ " fires on " ^ name)
    true
    (List.mem rule hit)

let check_quiet rule name () =
  let hit = rules_of (lint name) in
  Alcotest.(check bool)
    (rule ^ " quiet on " ^ name)
    false
    (List.mem rule hit)

let positive_counts () =
  (* Every banned construct in a positive fixture is reported individually. *)
  let count name = List.length (lint name) in
  Alcotest.(check int) "l1 count" 4 (count "l1_random_pos.ml");
  Alcotest.(check int) "l2 count" 5 (count "l2_polycompare_pos.ml");
  Alcotest.(check int) "l3 count" 2 (count "l3_catchall_pos.ml");
  Alcotest.(check int) "l4 count" 3 (count "l4_print_pos.ml");
  Alcotest.(check int) "l5 count" 4 (count "l5_obj_magic_pos.ml");
  Alcotest.(check int) "l6 count" 9 (count "l6_domain_pos.ml")

let waiver_suppresses () =
  let ds = lint "waiver.ml" in
  Alcotest.(check int) "only the unwaived violation survives" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "surviving rule is L2" "L2" d.Diagnostic.rule;
  Alcotest.(check int) "at the wrong-rule-waiver line" 10 d.Diagnostic.line

let scoping () =
  (* The same stdout-printing source is an L4 error in a library module but
     legitimate in the report layer, the experiments harness and bin/. *)
  let src = fixture "l4_print_pos.ml" in
  let at path = rules_of (Driver.lint_source ~path src) in
  Alcotest.(check bool) "L4 in lib/util" true (List.mem "L4" (at "lib/util/x.ml"));
  Alcotest.(check bool)
    "no L4 in lib/experiments" false
    (List.mem "L4" (at "lib/experiments/report.ml"));
  Alcotest.(check bool) "no L4 in bin" false (List.mem "L4" (at "bin/driver.ml"));
  (* The clock allowlist exempts exactly the telemetry/report modules. *)
  let clock = "let t = Unix.gettimeofday ()" in
  Alcotest.(check bool)
    "L1 in core" true
    (List.mem "L1" (rules_of (Driver.lint_source ~path:"lib/core/x.ml" clock)));
  Alcotest.(check bool)
    "no L1 in telemetry" false
    (List.mem "L1"
       (rules_of (Driver.lint_source ~path:"lib/util/telemetry.ml" clock)));
  (* L2 guards all of lib/, and only lib/. *)
  let poly = "let f (a : int array) = Array.sort compare a" in
  Alcotest.(check bool)
    "L2 in hashing" true
    (List.mem "L2" (rules_of (Driver.lint_source ~path:"lib/hashing/x.ml" poly)));
  Alcotest.(check bool)
    "L2 in dynamic" true
    (List.mem "L2" (rules_of (Driver.lint_source ~path:"lib/dynamic/x.ml" poly)));
  Alcotest.(check bool)
    "L2 in experiments" true
    (List.mem "L2"
       (rules_of (Driver.lint_source ~path:"lib/experiments/x.ml" poly)));
  Alcotest.(check bool)
    "no L2 in bench" false
    (List.mem "L2" (rules_of (Driver.lint_source ~path:"bench/x.ml" poly)));
  (* L6 exempts exactly the pool module. *)
  let spawn = "let d = Domain.spawn (fun () -> ())" in
  Alcotest.(check bool)
    "L6 in experiments" true
    (List.mem "L6" (rules_of (Driver.lint_source ~path:"lib/experiments/x.ml" spawn)));
  Alcotest.(check bool)
    "no L6 in the pool" false
    (List.mem "L6" (rules_of (Driver.lint_source ~path:"lib/util/pool.ml" spawn)))

let severity_override () =
  let ds =
    Driver.lint_source
      ~severity_overrides:[ ("L2", Diagnostic.Warning) ]
      ~path:"lib/core/fixture.ml"
      (fixture "l2_polycompare_pos.ml")
  in
  Alcotest.(check bool) "diagnostics still reported" true (ds <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "demoted to warning" "warning"
        (Diagnostic.severity_label d.Diagnostic.severity))
    ds;
  let summary = Driver.summarize ~files:1 ds in
  Alcotest.(check int) "no errors after demotion" 0 summary.Driver.errors;
  Alcotest.(check int) "all warnings" (List.length ds) summary.Driver.warnings

let parse_error_is_diagnosed () =
  let ds = Driver.lint_source ~path:"lib/core/bad.ml" "let = in +" in
  Alcotest.(check int) "one diagnostic" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "parse-error rule" "P0" d.Diagnostic.rule;
  Alcotest.(check int) "counted as an error" 1
    (Driver.summarize ~files:1 ds).Driver.errors

let catalogue_sane () =
  Alcotest.(check int) "six rules" 6 (List.length Rules.catalogue);
  List.iter
    (fun id ->
      Alcotest.(check bool) ("rule " ^ id ^ " registered") true
        (Option.is_some (Rules.find id)))
    [ "L1"; "L2"; "L3"; "L4"; "L5"; "L6" ]

let string_marker_waives_nothing () =
  (* A rule's hint text quotes the waiver syntax; only a comment waives. *)
  let ds = lint "l3_string_marker_pos.ml" in
  Alcotest.(check (list string)) "the L3 finding survives" [ "L3" ]
    (List.map (fun d -> d.Diagnostic.rule) ds)

let json_roundtrip () =
  let ds = lint "l1_random_pos.ml" in
  let s = Driver.summarize ~files:1 ds in
  let json = Driver.summary_to_json s in
  (* Not a full parser: check shape and that quoting survived. *)
  Alcotest.(check bool) "mentions rule id" true
    (Option.is_some (Lint.Waivers.find_sub json {|"rule":"L1"|}))

let suite =
  let test name fn = Alcotest.test_case name `Quick fn in
  [
    test "L1 fires" (check_fires "L1" "l1_random_pos.ml");
    test "L1 quiet" (check_quiet "L1" "l1_rng_neg.ml");
    test "L2 fires" (check_fires "L2" "l2_polycompare_pos.ml");
    test "L2 quiet" (check_quiet "L2" "l2_typed_neg.ml");
    test "L3 fires" (check_fires "L3" "l3_catchall_pos.ml");
    test "L3 quiet" (check_quiet "L3" "l3_explicit_neg.ml");
    test "L4 fires" (check_fires "L4" "l4_print_pos.ml");
    test "L4 quiet" (check_quiet "L4" "l4_sprintf_neg.ml");
    test "L5 fires" (check_fires "L5" "l5_obj_magic_pos.ml");
    test "L5 quiet" (check_quiet "L5" "l5_annotated_neg.ml");
    test "L6 fires" (check_fires "L6" "l6_domain_pos.ml");
    test "L6 quiet" (check_quiet "L6" "l6_pool_neg.ml");
    test "positive fixture counts" positive_counts;
    test "waiver suppresses named rule only" waiver_suppresses;
    test "waiver marker in a string waives nothing" string_marker_waives_nothing;
    test "path scoping" scoping;
    test "per-rule severity override" severity_override;
    test "parse error diagnosed" parse_error_is_diagnosed;
    test "catalogue sane" catalogue_sane;
    test "json summary" json_roundtrip;
  ]
