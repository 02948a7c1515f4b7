type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  sorted.(idx)

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let m = mean a in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
    /. float_of_int n
  in
  {
    count = n;
    mean = m;
    stddev = sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

let cdf_points samples k =
  let n = Array.length samples in
  if n = 0 then []
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let k = max 1 (min k n) in
    let pick = List.init k (fun i -> (i + 1) * n / k) in
    List.map
      (fun rank ->
        let idx = max 0 (rank - 1) in
        (sorted.(idx), float_of_int rank /. float_of_int n))
      pick
  end
