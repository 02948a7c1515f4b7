type t = { bitmaps : int64 array }

let phi = 0.77351

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let create ~buckets =
  if not (is_power_of_two buckets) then
    invalid_arg "Fm_sketch.create: buckets must be a power of two";
  { bitmaps = Array.make buckets 0L }

let copy t = { bitmaps = Array.copy t.bitmaps }

(* Count trailing zeros of a 64-bit value (position of lowest set bit). *)
let trailing_zeros v =
  if v = 0L then 64
  else begin
    let rec go i =
      if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then i else go (i + 1)
    in
    go 0
  end

let add t name =
  let h = Disco_hash.Hash_space.of_name name in
  let buckets = Array.length t.bitmaps in
  let bucket = Int64.to_int (Int64.logand h (Int64.of_int (buckets - 1))) in
  (* Geometric position: trailing zeros of the remaining hash bits. A
     31-bit bitmap suffices for any population this library simulates, so
     a bucket serializes to 4 bytes. *)
  let rest = Int64.shift_right_logical h 20 in
  let pos = min 31 (trailing_zeros rest) in
  t.bitmaps.(bucket) <-
    Int64.logor t.bitmaps.(bucket) (Int64.shift_left 1L pos)

let merge_into dst src =
  if Array.length dst.bitmaps <> Array.length src.bitmaps then
    invalid_arg "Fm_sketch.merge_into: size mismatch";
  Array.iteri
    (fun i b -> dst.bitmaps.(i) <- Int64.logor dst.bitmaps.(i) b)
    src.bitmaps

(* disco-lint: allow L10 test_synopsis's merge tests compare sketches through it *)
let equal a b = a.bitmaps = b.bitmaps

let lowest_zero bitmap =
  let rec go i =
    if i >= 32 then 32
    else if Int64.logand (Int64.shift_right_logical bitmap i) 1L = 0L then i
    else go (i + 1)
  in
  go 0

let estimate t =
  let buckets = Array.length t.bitmaps in
  let sum =
    Array.fold_left (fun acc b -> acc + lowest_zero b) 0 t.bitmaps
  in
  let mean = float_of_int sum /. float_of_int buckets in
  float_of_int buckets /. phi *. (2.0 ** mean)

let byte_size t = 4 * Array.length t.bitmaps
