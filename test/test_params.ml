module Params = Disco_core.Params
module Name = Disco_core.Name

let test_landmark_probability_bounds () =
  List.iter
    (fun n ->
      let p = Params.landmark_probability Params.default ~n in
      Alcotest.(check bool) (Printf.sprintf "p(%d) in (0,1]" n) true (p > 0.0 && p <= 1.0))
    [ 2; 10; 1024; 1_000_000 ];
  Alcotest.(check (float 1e-9)) "n=1 degenerate" 1.0
    (Params.landmark_probability Params.default ~n:1)

let test_landmark_probability_decreasing () =
  let p n = Params.landmark_probability Params.default ~n in
  Alcotest.(check bool) "decreasing" true (p 100 > p 10_000 && p 10_000 > p 1_000_000)

let test_expected_landmarks_sqrt () =
  (* n * p = sqrt(n log2 n). *)
  let n = 16384 in
  let expected = float_of_int n *. Params.landmark_probability Params.default ~n in
  Alcotest.(check bool)
    (Printf.sprintf "expected %f near 479" expected)
    true
    (expected > 450.0 && expected < 510.0)

let test_vicinity_size () =
  let k = Params.vicinity_size Params.default ~n:16384 in
  Alcotest.(check bool) (Printf.sprintf "k=%d near 479" k) true (k > 450 && k < 510);
  Alcotest.(check int) "n=1" 0 (Params.vicinity_size Params.default ~n:1);
  (* Never exceeds the number of other nodes. *)
  Alcotest.(check bool) "capped" true (Params.vicinity_size Params.default ~n:4 <= 3)

let test_factors_scale () =
  let double = { Params.default with Params.vicinity_factor = 2.0 } in
  Alcotest.(check bool) "factor scales k" true
    (Params.vicinity_size double ~n:4096 > Params.vicinity_size Params.default ~n:4096)

let test_name_defaults () =
  Alcotest.(check string) "default name" "node:17" (Name.default 17);
  let names = Name.default_array 5 in
  Alcotest.(check int) "array" 5 (Array.length names);
  Alcotest.(check bool) "hash differs" true (Name.hash names.(0) <> Name.hash names.(1))

let suite =
  [
    Alcotest.test_case "landmark probability bounds" `Quick test_landmark_probability_bounds;
    Alcotest.test_case "landmark probability decreasing" `Quick test_landmark_probability_decreasing;
    Alcotest.test_case "expected landmarks ~ sqrt(n log n)" `Quick test_expected_landmarks_sqrt;
    Alcotest.test_case "vicinity size" `Quick test_vicinity_size;
    Alcotest.test_case "factors scale" `Quick test_factors_scale;
    Alcotest.test_case "name defaults" `Quick test_name_defaults;
  ]
