module Packed = Disco_core.Packed
module Rng = Disco_util.Rng
module Hash_space = Disco_hash.Hash_space

(* Deterministic pseudo-random (hi, lo) key halves from real name hashes,
   the same population Othello serves in the routers. *)
let key_halves n salt =
  let hi = Array.make n 0 and lo = Array.make n 0 in
  for i = 0 to n - 1 do
    let h, l = Packed.split64 (Hash_space.of_name (Printf.sprintf "k%d-%d" salt i)) in
    hi.(i) <- h;
    lo.(i) <- l
  done;
  (hi, lo)

let test_csr_layout () =
  let t = Packed.Csr.of_rows [| [| 3; 5; 9 |]; [||]; [| 1 |] |] in
  Alcotest.(check int) "rows" 3 (Packed.Csr.rows t);
  Alcotest.(check int) "row 0 len" 3 (Packed.Csr.row_len t 0);
  Alcotest.(check int) "row 1 empty" 0 (Packed.Csr.row_len t 1);
  Alcotest.(check int) "get" 9 (Packed.Csr.get t 0 2);
  Alcotest.(check int) "find present" 1 (Packed.Csr.find_sorted t 0 5);
  Alcotest.(check int) "find absent" (-1) (Packed.Csr.find_sorted t 0 4);
  Alcotest.(check int) "find in empty row" (-1) (Packed.Csr.find_sorted t 1 5);
  let acc = ref [] in
  Packed.Csr.iter_row t 0 (fun x -> acc := x :: !acc);
  Alcotest.(check (list int)) "iter order" [ 9; 5; 3 ] !acc

let test_csr_of_fn () =
  let t =
    Packed.Csr.of_fn ~n:4 ~row_len:(fun i -> i)
      ~fill:(fun i data off ->
        for j = 0 to i - 1 do
          data.(off + j) <- (10 * i) + j
        done)
  in
  Alcotest.(check int) "total" 6 (Array.length t.Packed.Csr.data);
  Alcotest.(check int) "value" 31 (Packed.Csr.get t 3 1)

let test_bitvec_roundtrip () =
  let t = Packed.Bitvec.create ~width:7 ~len:200 in
  for i = 0 to 199 do
    Packed.Bitvec.set t i (i * 37 mod 128)
  done;
  let ok = ref true in
  for i = 0 to 199 do
    if Packed.Bitvec.get t i <> i * 37 mod 128 then ok := false
  done;
  Alcotest.(check bool) "all values survive" true !ok;
  (* Overwrites must not leak into neighbors. *)
  Packed.Bitvec.set t 100 0;
  Alcotest.(check int) "overwrite" 0 (Packed.Bitvec.get t 100);
  Alcotest.(check int) "left neighbor intact" (99 * 37 mod 128) (Packed.Bitvec.get t 99);
  Alcotest.(check int) "right neighbor intact" (101 * 37 mod 128) (Packed.Bitvec.get t 101)

let test_othello_empty () =
  let t = Packed.Othello.build ~hi:[||] ~lo:[||] ~values:[||] in
  (* Queries on an empty map are defined (arbitrary in-range value). *)
  Alcotest.(check bool) "query total" true (Packed.Othello.query t ~hi:7 ~lo:9 >= 0)

let test_othello_single () =
  let t = Packed.Othello.build ~hi:[| 123 |] ~lo:[| 456 |] ~values:[| 17 |] in
  Alcotest.(check int) "single key" 17 (Packed.Othello.query t ~hi:123 ~lo:456)

let test_othello_duplicate_rejected () =
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Packed.Othello.build: duplicate key") (fun () ->
      ignore
        (Packed.Othello.build ~hi:[| 1; 2; 1 |] ~lo:[| 9; 9; 9 |]
           ~values:[| 0; 1; 2 |]))

let test_othello_exact_map () =
  let n = 500 in
  let hi, lo = key_halves n 1 in
  let values = Array.init n (fun i -> i * 13 mod 1000) in
  let t = Packed.Othello.build ~hi ~lo ~values in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Packed.Othello.query t ~hi:hi.(i) ~lo:lo.(i) <> values.(i) then ok := false
  done;
  Alcotest.(check bool) "all keys map" true !ok;
  Alcotest.(check bool) "a few bits per key"
    true
    (float_of_int (8 * Packed.Othello.byte_size t) /. float_of_int n <= 64.0)

let test_othello_rebuild_on_collision () =
  (* Scan key-set salts until one first draw is cyclic; the build must
     retry with a bumped seed and still answer every key correctly. *)
  let found = ref None in
  let salt = ref 100 in
  while !found = None && !salt < 2000 do
    let n = 24 in
    let hi, lo = key_halves n !salt in
    let values = Array.init n (fun i -> i) in
    let t = Packed.Othello.build ~hi ~lo ~values in
    if Packed.Othello.seed t > 0 then found := Some (t, hi, lo, values);
    incr salt
  done;
  match !found with
  | None -> Alcotest.fail "no cyclic first draw in 1900 key sets"
  | Some (t, hi, lo, values) ->
      Alcotest.(check bool) "rebuilt" true (Packed.Othello.seed t > 0);
      Array.iteri
        (fun i v ->
          Alcotest.(check int) "value after rebuild" v
            (Packed.Othello.query t ~hi:hi.(i) ~lo:lo.(i)))
        values

let test_othello_absent_keys () =
  let n = 64 in
  let hi, lo = key_halves n 7 in
  let values = Array.init n (fun i -> i) in
  let t = Packed.Othello.build ~hi ~lo ~values in
  (* Absent keys return some arbitrary but in-range, crash-free value:
     callers only ever probe live names. *)
  let ahi, alo = key_halves 32 9999 in
  for i = 0 to 31 do
    let v = Packed.Othello.query t ~hi:ahi.(i) ~lo:alo.(i) in
    Alcotest.(check bool) "in width range" true (v >= 0 && v < 64)
  done

let prop_othello_vs_hashtbl =
  Helpers.qtest "othello round-trip vs Hashtbl" ~count:30
    QCheck.(pair (int_range 0 300) (int_range 1 1_000_000))
    (fun (n, salt) ->
      let hi, lo = key_halves n salt in
      let values = Array.init n (fun i -> (i * salt) land 0xFFFF) in
      let reference = Hashtbl.create 64 in
      Array.iteri (fun i v -> Hashtbl.replace reference (hi.(i), lo.(i)) v) values;
      let t = Packed.Othello.build ~hi ~lo ~values in
      let ok = ref true in
      Hashtbl.iter
        (fun (h, l) v -> if Packed.Othello.query t ~hi:h ~lo:l <> v then ok := false)
        reference;
      !ok)

let prop_csr_vs_rows =
  Helpers.qtest "csr round-trip vs source rows" ~count:50
    QCheck.(pair Helpers.seed_arb (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let rows =
        Array.init n (fun _ ->
            let len = Rng.int rng 9 in
            let r = Array.init len (fun _ -> Rng.int rng 1000) in
            Array.sort compare r;
            r)
      in
      let t = Packed.Csr.of_rows rows in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          if Packed.Csr.row_len t i <> Array.length row then ok := false;
          Array.iteri (fun j x -> if Packed.Csr.get t i j <> x then ok := false) row;
          (* Sorted-row membership agrees with linear scan. *)
          for probe = 0 to 4 do
            let x = Rng.int rng 1000 in
            ignore probe;
            let linear = ref (-1) in
            Array.iteri (fun j y -> if y = x && !linear < 0 then linear := j) row;
            if Packed.Csr.find_sorted t i x <> !linear then ok := false
          done)
        rows;
      !ok)

let test_fenwick_ring () =
  let n = 200 in
  let fw = Packed.Fenwick.create n in
  let present = Array.make n false in
  let rng = Rng.create 99 in
  for _ = 1 to 120 do
    let i = Rng.int rng n in
    if not present.(i) then begin
      present.(i) <- true;
      Packed.Fenwick.add fw i 1
    end
  done;
  let members = ref [] in
  for i = n - 1 downto 0 do
    if present.(i) then members := i :: !members
  done;
  let members = Array.of_list !members in
  Alcotest.(check int) "total" (Array.length members) (Packed.Fenwick.total fw);
  Array.iteri
    (fun rank v ->
      Alcotest.(check int) "kth select" v (Packed.Fenwick.kth fw rank);
      Alcotest.(check int) "prefix rank" rank (Packed.Fenwick.prefix fw v))
    members;
  Alcotest.check_raises "kth out of range"
    (Invalid_argument "Packed.Fenwick.kth") (fun () ->
      ignore (Packed.Fenwick.kth fw (Array.length members)))

let test_split64 () =
  let hi, lo = Packed.split64 0x0123456789ABCDEFL in
  Alcotest.(check int) "hi" 0x01234567 hi;
  Alcotest.(check int) "lo" 0x89ABCDEF lo;
  let hi, lo = Packed.split64 (-1L) in
  Alcotest.(check bool) "unsigned halves" true (hi = 0xFFFFFFFF && lo = 0xFFFFFFFF)

let suite =
  [
    Alcotest.test_case "csr layout" `Quick test_csr_layout;
    Alcotest.test_case "csr of_fn" `Quick test_csr_of_fn;
    Alcotest.test_case "bitvec round-trip" `Quick test_bitvec_roundtrip;
    Alcotest.test_case "othello empty" `Quick test_othello_empty;
    Alcotest.test_case "othello single key" `Quick test_othello_single;
    Alcotest.test_case "othello duplicate rejected" `Quick
      test_othello_duplicate_rejected;
    Alcotest.test_case "othello exact map" `Quick test_othello_exact_map;
    Alcotest.test_case "othello rebuild on collision" `Quick
      test_othello_rebuild_on_collision;
    Alcotest.test_case "othello absent keys" `Quick test_othello_absent_keys;
    prop_othello_vs_hashtbl;
    prop_csr_vs_rows;
    Alcotest.test_case "fenwick ring" `Quick test_fenwick_ring;
    Alcotest.test_case "split64" `Quick test_split64;
  ]
