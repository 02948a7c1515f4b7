module Hash_space = Disco_hash.Hash_space
module Consistent_hash = Disco_hash.Consistent_hash

let test_prefix_bits () =
  let h = 0xF000000000000000L in
  Alcotest.(check int) "top 4 bits" 0xF (Hash_space.prefix_bits h ~width:4);
  Alcotest.(check int) "width 0" 0 (Hash_space.prefix_bits h ~width:0);
  Alcotest.(check int) "top 1 bit" 1 (Hash_space.prefix_bits h ~width:1)

let test_common_prefix_len () =
  Alcotest.(check int) "identical" 64 (Hash_space.common_prefix_len 5L 5L);
  Alcotest.(check int) "differ at top" 0
    (Hash_space.common_prefix_len 0L Int64.min_int);
  Alcotest.(check int) "63 shared" 63 (Hash_space.common_prefix_len 0L 1L)

(* The one-bit-at-a-time counts the branch-free ones replace. *)
let bit_loop_clz x =
  let rec go i = if i >= 32 || (x lsr (31 - i)) land 1 = 1 then i else go (i + 1) in
  go 0

let bit_loop_cpl a b =
  let x = Int64.logxor a b in
  let rec go i =
    if i >= 64 || Int64.logand (Int64.shift_right_logical x (63 - i)) 1L = 1L then i
    else go (i + 1)
  in
  go 0

(* Words with every count of leading zeros (a random word shifted right
   0..32 places) plus 0, 1, 2^31 and 2^32-1; id pairs that differ first
   at every bit position, and equal ids. *)
let prop_clz_matches_bit_loop =
  Helpers.qtest "clz and common_prefix_len = bit loop" ~count:300 Helpers.seed_arb
    (fun seed ->
      let module Rng = Disco_util.Rng in
      let rng = Rng.create seed in
      let word () = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 32) in
      let words =
        [ 0; 1; 1 lsl 31; (1 lsl 32) - 1 ]
        @ List.init 40 (fun _ -> word () lsr Rng.int rng 33)
      in
      let ids =
        [ 0L; 1L; 0x80000000L; 0xffffffffL; -1L; Int64.min_int ]
        @ List.init 8 (fun _ -> Rng.bits64 rng)
      in
      (* [a] with its bits from position r on changed, the first of them
         always: common prefix r, or 64 for r = 64. *)
      let partner a =
        let r = Rng.int rng 65 in
        let top = Int64.logor (Rng.bits64 rng) Int64.min_int in
        if r = 64 then a else Int64.logxor a (Int64.shift_right_logical top r)
      in
      List.for_all (fun x -> Int.equal (Hash_space.clz x) (bit_loop_clz x)) words
      && List.for_all (fun a -> Int.equal (Hash_space.common_prefix_len a a) 64) ids
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Int.equal (Hash_space.common_prefix_len a b) (bit_loop_cpl a b))
               (ids @ List.init 8 (fun _ -> partner a)))
           ids)

let test_ring_distance () =
  Alcotest.(check int64) "self" 0L (Hash_space.ring_distance 10L 10L);
  Alcotest.(check int64) "forward" 5L (Hash_space.ring_distance 10L 15L);
  Alcotest.(check int64) "symmetric" (Hash_space.ring_distance 15L 10L)
    (Hash_space.ring_distance 10L 15L);
  (* Wraparound: distance between 0 and 2^64-1 is 1. *)
  Alcotest.(check int64) "wraparound" 1L (Hash_space.ring_distance 0L (-1L))

let test_group_size_bits_monotone () =
  let k1 = Hash_space.group_size_bits ~n_estimate:1024 in
  let k2 = Hash_space.group_size_bits ~n_estimate:16384 in
  let k3 = Hash_space.group_size_bits ~n_estimate:192_244 in
  Alcotest.(check bool) "monotone in n" true (k1 <= k2 && k2 <= k3);
  Alcotest.(check int) "tiny n" 0 (Hash_space.group_size_bits ~n_estimate:2);
  (* Values the evaluation relies on (see EXPERIMENTS.md); 192,244 is the
     paper's router-level map size, where the measured group state implies
     64 groups. *)
  Alcotest.(check int) "n=1024" 3 k1;
  Alcotest.(check int) "n=16384" 5 k2;
  Alcotest.(check int) "n=192244" 6 k3

let test_of_name_deterministic () =
  Alcotest.(check int64) "deterministic" (Hash_space.of_name "n1") (Hash_space.of_name "n1");
  Alcotest.(check bool) "names differ" true
    (Hash_space.of_name "n1" <> Hash_space.of_name "n2")

let make_ring ?(replicas = 1) k =
  let owners = Array.init k Fun.id in
  Consistent_hash.create ~replicas ~owners ~owner_name:(fun o -> Printf.sprintf "lm%d" o) ()

(* Keys from [keys] landing on each of the [k] owners of [make_ring k]. *)
let load_counts ring k ~keys =
  let counts = Array.make k 0 in
  Array.iter
    (fun key ->
      let o = Consistent_hash.owner_of ring key in
      counts.(o) <- counts.(o) + 1)
    keys;
  List.init k (fun o -> (o, counts.(o)))

let test_ch_owner_is_member () =
  let ring = make_ring 7 in
  for i = 0 to 200 do
    let o = Consistent_hash.owner_of_name ring (Printf.sprintf "key%d" i) in
    Alcotest.(check bool) "owner in set" true (o >= 0 && o < 7)
  done

let test_ch_deterministic () =
  let r1 = make_ring 7 and r2 = make_ring 7 in
  for i = 0 to 50 do
    let k = Printf.sprintf "key%d" i in
    Alcotest.(check int) "same owner" (Consistent_hash.owner_of_name r1 k)
      (Consistent_hash.owner_of_name r2 k)
  done

let test_ch_all_owners_used () =
  let ring = make_ring 4 in
  let keys = Array.init 2000 (fun i -> Hash_space.of_name (Printf.sprintf "k%d" i)) in
  let loads = load_counts ring 4 ~keys in
  List.iter
    (fun (o, c) ->
      Alcotest.(check bool) (Printf.sprintf "owner %d used" o) true (c > 0))
    loads;
  Alcotest.(check int) "loads sum to keys" 2000
    (List.fold_left (fun acc (_, c) -> acc + c) 0 loads)

let test_ch_replicas_balance () =
  let keys = Array.init 4000 (fun i -> Hash_space.of_name (Printf.sprintf "k%d" i)) in
  let imbalance replicas =
    let ring = make_ring ~replicas 8 in
    let loads = load_counts ring 8 ~keys in
    let max_load = List.fold_left (fun acc (_, c) -> max acc c) 0 loads in
    float_of_int max_load /. (4000.0 /. 8.0)
  in
  (* Theorem 2: multiple hash functions reduce the load imbalance. *)
  Alcotest.(check bool) "more replicas, flatter" true (imbalance 32 < imbalance 1)

let test_ch_consistency_under_removal () =
  (* Removing one owner must only remap that owner's keys. *)
  let owners_full = Array.init 6 Fun.id in
  let owners_less = Array.of_list [ 0; 1; 2; 3; 4 ] in
  let name o = Printf.sprintf "lm%d" o in
  let full = Consistent_hash.create ~owners:owners_full ~owner_name:name () in
  let less = Consistent_hash.create ~owners:owners_less ~owner_name:name () in
  for i = 0 to 500 do
    let key = Hash_space.of_name (Printf.sprintf "key%d" i) in
    let before = Consistent_hash.owner_of full key in
    if before <> 5 then
      Alcotest.(check int) "stable key" before (Consistent_hash.owner_of less key)
  done

(* [owner_among] on a ring over every owner answers as [owner_of] on a ring
   built from the admitted owners alone, and [None] exactly when none is
   admitted.  Owner sets of 1-64 random ids with 1-3 replicas; admitted
   subsets empty, singleton, full or of random density; keys random, equal
   to a ring point (replica [r] of owner [o] sits at the hash of
   "<name o>#<r>"), before the first point and past the last (the wrap). *)
let prop_owner_among_is_subset_ring =
  Helpers.qtest "consistent hash: owner_among = owner_of on the subset ring" ~count:300
    Helpers.seed_arb (fun seed ->
      let module Rng = Disco_util.Rng in
      let rng = Rng.create seed in
      let replicas = 1 + Rng.int rng 3 in
      let owners = Rng.sample_without_replacement rng (1 + Rng.int rng 64) 1000 in
      let name o = Printf.sprintf "o%d" o in
      let full = Consistent_hash.create ~replicas ~owners ~owner_name:name () in
      let points =
        Array.to_list owners
        |> List.concat_map (fun o ->
               List.init replicas (fun r ->
                   (o, Hash_space.of_name (Printf.sprintf "%s#%d" (name o) r))))
      in
      let last =
        List.fold_left
          (fun m (_, p) -> if Hash_space.compare_unsigned p m > 0 then p else m)
          0L points
      in
      let keys =
        (0L :: -1L :: Int64.succ last :: List.map snd points)
        @ List.init 20 (fun _ -> Rng.bits64 rng)
      in
      let subset () =
        match Rng.int rng 4 with
        | 0 -> [||]
        | 1 -> [| owners.(Rng.int rng (Array.length owners)) |]
        | 2 -> owners
        | _ ->
            let p = Rng.float rng 1.0 in
            Array.of_list (List.filter (fun _ -> Rng.bernoulli rng p) (Array.to_list owners))
      in
      (* A key on a point belongs to that point's owner. *)
      List.for_all (fun (o, key) -> Int.equal o (Consistent_hash.owner_of full key)) points
      && List.for_all
        (fun _ ->
          let admitted = subset () in
          let member o = Array.exists (Int.equal o) admitted in
          let subset_ring =
            if Array.length admitted = 0 then None
            else Some (Consistent_hash.create ~replicas ~owners:admitted ~owner_name:name ())
          in
          List.for_all
            (fun key ->
              Option.equal Int.equal
                (Consistent_hash.owner_among full key ~member)
                (Option.map (fun ring -> Consistent_hash.owner_of ring key) subset_ring))
            keys)
        (List.init 8 Fun.id))

let suite =
  [
    Alcotest.test_case "prefix bits" `Quick test_prefix_bits;
    Alcotest.test_case "common prefix length" `Quick test_common_prefix_len;
    Alcotest.test_case "ring distance" `Quick test_ring_distance;
    Alcotest.test_case "group size bits" `Quick test_group_size_bits_monotone;
    Alcotest.test_case "of_name deterministic" `Quick test_of_name_deterministic;
    Alcotest.test_case "consistent hash: owner valid" `Quick test_ch_owner_is_member;
    Alcotest.test_case "consistent hash: deterministic" `Quick test_ch_deterministic;
    Alcotest.test_case "consistent hash: all owners used" `Quick test_ch_all_owners_used;
    Alcotest.test_case "consistent hash: replicas balance" `Quick test_ch_replicas_balance;
    Alcotest.test_case "consistent hash: removal is local" `Quick test_ch_consistency_under_removal;
    prop_owner_among_is_subset_ring;
    prop_clz_matches_bit_loop;
  ]
