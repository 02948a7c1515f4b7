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

(* Smear the highest set bit rightwards, then count the ones (SWAR
   popcount): no branch and no loop. *)
let clz x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  32 - (((x * 0x01010101) lsr 24) land 0xff)

let common_prefix_len a b =
  let x = Int64.logxor a b in
  let hi = Int64.to_int (Int64.shift_right_logical x 32) in
  if hi <> 0 then clz hi
  else 32 + clz (Int64.to_int (Int64.logand x 0xffffffffL))

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
