type id = int64

let of_name name =
  let d = Sha256.digest name in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code d.[i]))
  done;
  !acc

let compare_unsigned a b = Int64.unsigned_compare a b

let prefix_bits h ~width =
  if width < 0 || width > 30 then invalid_arg "Hash_space.prefix_bits";
  if width = 0 then 0
  else Int64.to_int (Int64.shift_right_logical h (64 - width))

let common_prefix_len a b =
  let x = Int64.logxor a b in
  if x = 0L then 64
  else begin
    (* Count leading zeros of x. *)
    let rec go i =
      if i >= 64 then 64
      else if Int64.logand (Int64.shift_right_logical x (63 - i)) 1L = 1L then i
      else go (i + 1)
    in
    go 0
  end

let ring_distance a b =
  (* disco-lint: allow L7 the ring metric is pinned to Int64; the two boxed intermediates are short-lived minor garbage *)
  let d = Int64.sub b a in
  (* disco-lint: allow L7 the ring metric is pinned to Int64; the two boxed intermediates are short-lived minor garbage *)
  let d' = Int64.neg d in
  if Int64.unsigned_compare d d' <= 0 then d else d'

let to_hex h = Printf.sprintf "%016Lx" h

let group_size_bits ~n_estimate =
  if n_estimate < 4 then 0
  else begin
    (* k = floor(log2(sqrt(n / ln n))). §4.4 writes blog2(sqrt n / log n)c
       and Theorem 2 writes blog2(sqrt n / log^2 n) + O(1)c; this variant is
       the one consistent with the state the paper actually measures
       (Fig 2, Fig 7 — group size ~ 3000 at n = 192k, ~ 512 at n = 16k).
       See EXPERIMENTS.md. *)
    let n = float_of_int n_estimate in
    let v = sqrt (n /. log n) in
    if v <= 1.0 then 0 else int_of_float (floor (log v /. log 2.0))
  end
