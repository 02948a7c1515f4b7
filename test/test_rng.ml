module Rng = Disco_util.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" false (Rng.bits64 a = Rng.bits64 b)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_covers_range () =
  let rng = Rng.create 9 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 15 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_shuffle_is_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 19 in
  let s = Rng.sample_without_replacement rng 10 1000 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 0 to 8 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
  done;
  Array.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 1000)) s

let test_sample_dense () =
  let rng = Rng.create 21 in
  let s = Rng.sample_without_replacement rng 9 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check int) "size" 9 (Array.length s);
  for i = 0 to 7 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
  done

let test_split_independent () =
  let parent = Rng.create 23 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "streams differ" true (c1 <> p1)
let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample dense case" `Quick test_sample_dense;
    Alcotest.test_case "split independence" `Quick test_split_independent;
  ]
