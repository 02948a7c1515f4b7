(* The shared JSON module.  Reader: structural parsing, member-order
   independence (the bug that motivated it), escapes, and error cases.
   Writer: its fixed layout, a parse-after-print round-trip property, and
   every emitter that prints through it. *)

module Json = Disco_util.Json
module Results = Disco_experiments.Results
module Scenario = Disco_check.Scenario
module Violation = Disco_check.Violation
module Harness = Disco_check.Harness
module Diagnostic = Lint.Diagnostic
module Alloc = Disco_bench.Alloc
module Scaling = Disco_bench.Scaling

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_scalars () =
  Alcotest.(check bool) "null" true (parse_exn "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_exn "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_exn " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_exn "42" = Json.Int 42);
  Alcotest.(check bool) "neg float" true (parse_exn "-1.5e2" = Json.Num (-150.0));
  Alcotest.(check bool) "string" true (parse_exn {|"hi"|} = Json.Str "hi")

let test_escapes () =
  Alcotest.(check bool) "quote+backslash" true
    (parse_exn {|"a\"b\\c"|} = Json.Str "a\"b\\c");
  Alcotest.(check bool) "controls" true
    (parse_exn {|"x\n\t\r"|} = Json.Str "x\n\t\r");
  Alcotest.(check bool) "unicode ascii" true (parse_exn {|"A"|} = Json.Str "A");
  Alcotest.(check bool) "unicode 2-byte" true
    (parse_exn {|"é"|} = Json.Str "\xc3\xa9")

let test_containers () =
  Alcotest.(check bool) "empty obj" true (parse_exn "{}" = Json.Obj []);
  Alcotest.(check bool) "empty arr" true (parse_exn "[]" = Json.Arr []);
  let v = parse_exn {|{"a": [1, 2], "b": {"c": "d"}}|} in
  Alcotest.(check bool) "nested arr" true
    (Json.member "a" v = Some (Json.Arr [ Json.Int 1; Json.Int 2 ]));
  Alcotest.(check bool) "nested obj" true
    (Option.bind (Json.member "b" v) (Json.string_member "c") = Some "d")

(* The regression the reader fixes: the old alloc-baseline scanner located
   values by byte offset from the key, so any member order other than the
   writer's exact layout mis-parsed.  The same row must read back
   identically under every permutation. *)
let test_member_order_independent () =
  let layouts =
    [
      {|{"scheme": "disco", "kind": "first", "words_per_hop": 150.0}|};
      {|{"words_per_hop": 150.0, "scheme": "disco", "kind": "first"}|};
      {|{"kind": "first", "words_per_hop": 150.0, "scheme": "disco"}|};
    ]
  in
  List.iter
    (fun s ->
      let v = parse_exn s in
      Alcotest.(check (option string)) "scheme" (Some "disco")
        (Json.string_member "scheme" v);
      Alcotest.(check (option string)) "kind" (Some "first")
        (Json.string_member "kind" v);
      Alcotest.(check bool) "wph" true
        (Json.float_member "words_per_hop" v = Some 150.0))
    layouts

let test_accessors () =
  let v = parse_exn {|{"i": 3, "f": 2.5, "s": "x", "l": [1]}|} in
  Alcotest.(check (option int)) "int member" (Some 3) (Json.int_member "i" v);
  Alcotest.(check (option int)) "non-integral" None (Json.int_member "f" v);
  Alcotest.(check bool) "float member" true (Json.float_member "f" v = Some 2.5);
  Alcotest.(check (option string)) "missing" None (Json.string_member "zz" v);
  Alcotest.(check int) "list member" 1 (List.length (Json.list_member "l" v));
  Alcotest.(check int) "list default" 0 (List.length (Json.list_member "s" v))

let test_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "expected failure on %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad {|{"a" 1}|};
  bad "[1, 2,]";
  bad {|"unterminated|};
  bad "nulL";
  bad "{} trailing"

let test_of_file_round_trip () =
  let path = Filename.temp_file "disco_json" ".json" in
  let oc = open_out path in
  output_string oc {|{"rows": [{"n": 10}, {"n": 20}]}|};
  close_out oc;
  (match Json.of_file path with
  | Error e -> Alcotest.failf "of_file: %s" e
  | Ok v ->
      let ns = List.filter_map (Json.int_member "n") (Json.list_member "rows" v) in
      Alcotest.(check (list int)) "rows" [ 10; 20 ] ns);
  Sys.remove path;
  Alcotest.(check bool) "missing file is Error" true
    (match Json.of_file path with Error _ -> true | Ok _ -> false)

(* --- writer --- *)

let test_layout () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1150299863866387076);
        ( "b",
          Json.Arr
            [
              Json.Num 2.0;
              Json.Num 0.1;
              Json.Num 0.30000000000000004;
              Json.Num 1e300;
              Json.Num (-1.5e-7);
              Json.Str "q\"b\\n\n\001é";
            ] );
        ("c", Json.Arr []);
        ("d", Json.Obj [ ("t", Json.Bool true); ("z", Json.Null) ]);
      ]
  in
  Alcotest.(check string) "fixed layout"
    (String.concat "\n"
       [
         {|{"a":1150299863866387076,"b":[|};
         "2.0,";
         "0.1,";
         "0.30000000000000004,";
         "1e+300,";
         "-1.5e-07,";
         {|"q\"b\\n\n\u0001é"|};
         {|],"c":[],"d":{"t":true,"z":null}}|};
       ])
    (Json.to_string v);
  Alcotest.(check bool) "every byte below 0x20 escaped" true
    (String.for_all
       (fun c -> Char.code c >= 0x20)
       (Json.to_string (Json.Str (String.init 0x20 Char.chr))))

let test_non_finite_null () =
  Alcotest.(check string) "nan and infinities print as null" "[\nnull,\nnull,\nnull\n]"
    (Json.to_string (Json.Arr [ Json.Num Float.nan; Json.Num infinity; Json.Num neg_infinity ]))

let gen_value =
  let open QCheck.Gen in
  let finite =
    oneof
      [
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 1.0)
          ui64;
        oneofl
          [ 0.0; -0.0; 5e-324; -2.2250738585072009e-308; max_float; -.max_float; 1e15 ];
      ]
  in
  let int = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let str = string_size ~gen:char (int_bound 12) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Num f) finite;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ]))

let prop_round_trip =
  Helpers.qtest "parse after print is the identity" ~count:500
    (QCheck.make ~print:Json.to_string gen_value) (fun v ->
      Json.parse (Json.to_string v) = Ok v)

(* --- the emitters that print through the writer --- *)

let members what s =
  match Json.parse s with
  | Ok (Json.Obj fields) -> List.map fst fields
  | Ok _ -> Alcotest.failf "%s: not an object: %s" what s
  | Error e -> Alcotest.failf "%s does not parse (%s): %s" what e s

let pinned_seed = 1150299863866387076

let scenario =
  match
    Scenario.of_string
      (Printf.sprintf "seed=%d,family=gnm,n=16,pairs=16,workload=uniform,churn=0"
         pinned_seed)
  with
  | Ok sc -> sc
  | Error e -> failwith e

let violation =
  {
    Violation.scheme = "s4";
    kind =
      Violation.Stretch_exceeded
        { phase = "first"; src = 1; dst = 10; stretch = 5.0; bound = 3.0 };
  }

let summary =
  {
    Harness.run_seed = 7;
    cases = 1;
    max_nodes = 64;
    schemes = [ "s4" ];
    total_pairs = 16;
    total_route_failures = 0;
    counterexamples =
      [
        {
          Harness.original = scenario;
          minimized = scenario;
          shrink_runs = 0;
          violations = [ violation ];
        };
      ];
  }

let diagnostic =
  {
    Diagnostic.rule = "L1";
    severity = Diagnostic.Error;
    file = "lib/core/x.ml";
    line = 2;
    col = 16;
    message = "Random.int is \"non-deterministic\"\n\tunder a seed";
    hint = "use Disco_util.Rng";
  }

let results_json () =
  Results.reset ();
  Results.record
    {
      Results.figure = "fig3";
      router = "disco";
      samples = 3;
      stretch_first_mean = Float.nan;
      stretch_first_max = 1.5;
      stretch_later_mean = 1.25;
      stretch_later_max = 2.0;
      state_mean = 40.0;
      state_max = 41.0;
      failures = 0;
      route_calls = 6;
      resolution_fallbacks = 1;
      messages = 0;
      elapsed_s = 0.125;
    };
  let s = Results.to_json () in
  Results.reset ();
  match Json.parse s with
  | Ok (Json.Arr [ row ]) ->
      Alcotest.(check bool) "nan field is null" true
        (Json.member "stretch_first_mean" row = Some Json.Null);
      Json.to_string row
  | _ -> Alcotest.failf "Results: not a one-row array: %s" s

let scaling_row stretch_mean =
  {
    Scaling.scheme = "bvr";
    n = 1000;
    state_nodes = 64;
    state_mean = 812.5;
    state_max = 1024.0;
    walks = 32;
    delivered = 0;
    stretch_mean;
    build_s = 0.5;
    vmhwm_kb = 65536.0;
  }

let alloc_row =
  {
    Alloc.scheme = "disco";
    kind = "later";
    walks = 200;
    hops = 1000;
    minor_words = 139000.0;
    words_per_hop = 139.0;
    words_per_walk = 695.0;
  }

let emitter name output expected =
  Alcotest.test_case (name ^ " emitter") `Quick (fun () ->
      Alcotest.(check (list string)) "top-level members" expected
        (members name (output ())))

let emitter_cases =
  [
    emitter "Results" results_json
      [
        "figure"; "router"; "samples"; "stretch_first_mean"; "stretch_first_max";
        "stretch_later_mean"; "stretch_later_max"; "state_mean"; "state_max";
        "failures"; "route_calls"; "resolution_fallbacks"; "messages"; "elapsed_s";
      ];
    emitter "Violation"
      (fun () -> Json.to_string (Violation.to_json violation))
      [ "scheme"; "kind"; "detail" ];
    emitter "Scenario"
      (fun () -> Json.to_string (Scenario.to_json scenario))
      [ "seed"; "family"; "n"; "pairs"; "workload"; "churn_steps" ];
    emitter "Harness"
      (fun () -> Harness.to_json summary)
      [
        "run_seed"; "cases"; "max_nodes"; "schemes"; "total_pairs";
        "total_route_failures"; "passed"; "counterexamples";
      ];
    emitter "Diagnostic"
      (fun () -> Json.to_string (Diagnostic.to_json diagnostic))
      [ "file"; "line"; "col"; "rule"; "severity"; "message"; "hint" ];
    emitter "lint summary"
      (fun () -> Lint.Driver.summary_to_json (Lint.Driver.summarize ~files:1 [ diagnostic ]))
      [ "files"; "errors"; "warnings"; "diagnostics" ];
    emitter "alloc"
      (fun () -> Alloc.json_of_rows ~seed:42 ~n:512 ~walks:200 [ alloc_row ])
      [ "figure"; "seed"; "n"; "walks_per_row"; "rows" ];
    emitter "scaling"
      (fun () -> Scaling.json_of_rows ~seed:42 [ scaling_row 1.5 ])
      [ "figure"; "seed"; "topology"; "rows" ];
  ]

(* A disco-check seed reaches 2^62, past a double's mantissa: the report
   must carry it exactly, equal to the seed its replay string names. *)
let test_counterexample_seed_exact () =
  match Json.parse (Harness.to_json summary) with
  | Ok doc -> (
      match Json.list_member "counterexamples" doc with
      | [ cx ] ->
          let seed =
            Option.bind (Json.member "minimized" cx) (Json.int_member "seed")
          in
          Alcotest.(check (option int)) "minimized seed" (Some pinned_seed) seed;
          let replay = Option.value ~default:"" (Json.string_member "replay" cx) in
          Alcotest.(check (option int)) "replay names the same seed" seed
            (Result.to_option
               (Result.map (fun sc -> sc.Scenario.seed) (Scenario.of_string replay)))
      | _ -> Alcotest.fail "expected one counterexample")
  | Error e -> Alcotest.failf "report does not parse: %s" e

(* A checkpoint row whose walks all failed has a nan stretch_mean; the
   writer prints null and the resumed sweep reads it back as nan. *)
let test_scaling_checkpoint_nan () =
  let path = Filename.temp_file "disco_scaling" ".json" in
  Scaling.checkpoint ~seed:42 ~path [ scaling_row Float.nan; scaling_row 1.5 ];
  let rows = Scaling.read_checkpoint path in
  Sys.remove path;
  match rows with
  | [ a; b ] ->
      Alcotest.(check bool) "nan reads back as nan" true (Float.is_nan a.Scaling.stretch_mean);
      Alcotest.(check (float 0.0)) "finite reads back" 1.5 b.Scaling.stretch_mean;
      Alcotest.(check int) "n" 1000 a.Scaling.n
  | _ -> Alcotest.failf "expected 2 rows, read %d" (List.length rows)

(* The alloc gate reads back what the alloc figure writes. *)
let test_alloc_baseline_round_trip () =
  let path = Filename.temp_file "disco_alloc" ".json" in
  let oc = open_out path in
  output_string oc (Alloc.json_of_rows ~seed:42 ~n:512 ~walks:200 [ alloc_row ]);
  close_out oc;
  let base = Alloc.parse_baseline path in
  Sys.remove path;
  Alcotest.(check bool) "row keyed by scheme and kind" true
    (base = [ (("disco", "later"), 139.0) ])

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "containers" `Quick test_containers;
    Alcotest.test_case "member order independent" `Quick
      test_member_order_independent;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "of_file round trip" `Quick test_of_file_round_trip;
    Alcotest.test_case "writer layout" `Quick test_layout;
    Alcotest.test_case "non-finite prints null" `Quick test_non_finite_null;
    prop_round_trip;
  ]
  @ emitter_cases
  @ [
      Alcotest.test_case "counterexample seed exact" `Quick
        test_counterexample_seed_exact;
      Alcotest.test_case "scaling checkpoint nan" `Quick test_scaling_checkpoint_nan;
      Alcotest.test_case "alloc baseline round trip" `Quick
        test_alloc_baseline_round_trip;
    ]
