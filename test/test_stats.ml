module Stats = Disco_util.Stats

let test_summarize_basic () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) s.Stats.stddev

let test_summarize_constant () =
  let s = Stats.summarize (Array.make 10 7.0) in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "p95" 7.0 s.Stats.p95

let test_summarize_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize [||]))

let test_percentile () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile sorted 0.5);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile sorted 0.95);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile sorted 1.0)

let test_cdf_points_monotone () =
  let samples = [| 5.0; 1.0; 3.0; 3.0; 2.0; 9.0; 0.5 |] in
  let pts = Stats.cdf_points samples 5 in
  let rec check_mono = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
        Alcotest.(check bool) "values nondecreasing" true (v2 >= v1);
        Alcotest.(check bool) "fractions increasing" true (f2 > f1);
        check_mono rest
    | _ -> ()
  in
  check_mono pts;
  Alcotest.(check (float 1e-9)) "last fraction is 1" 1.0 (snd (List.nth pts (List.length pts - 1)))

let test_cdf_empty () = Alcotest.(check bool) "empty" true (Stats.cdf_points [||] 5 = [])

let test_mean_empty () = Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [||])

let prop_percentile_bounds =
  Helpers.qtest "percentiles within min..max" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l ->
      let a = Array.of_list l in
      let s = Stats.summarize a in
      s.Stats.p50 >= s.Stats.min && s.Stats.p50 <= s.Stats.max
      && s.Stats.p95 >= s.Stats.p50 && s.Stats.p99 >= s.Stats.p95)

let suite =
  [
    Alcotest.test_case "summarize basic" `Quick test_summarize_basic;
    Alcotest.test_case "summarize constant" `Quick test_summarize_constant;
    Alcotest.test_case "summarize empty rejected" `Quick test_summarize_empty_rejected;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "cdf monotone" `Quick test_cdf_points_monotone;
    Alcotest.test_case "cdf empty" `Quick test_cdf_empty;
    Alcotest.test_case "mean empty" `Quick test_mean_empty;
    prop_percentile_bounds;
  ]
