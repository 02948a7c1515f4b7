(* Disco_util.Pool: the one concurrency primitive in the tree (lint L6).
   The contract under test is the determinism argument of DESIGN.md §5d:
   [run] returns results in input index order, identical to the sequential
   map, for every jobs value; exceptions propagate (lowest failing index
   wins); pools are reusable across batches. Pool.Memo lends each fill a
   scratch value that no other fill is using, makes at most one per domain
   filling at once, and gets it back when the fill returns or raises. *)

module Pool = Disco_util.Pool

exception Boom of int

let squares n = Array.init n (fun i -> i * i)

let test_sequential_jobs1 () =
  Pool.with_pool ~jobs:1 (fun p ->
      let out = Pool.run p (Array.init 17 Fun.id) (fun i -> i * i) in
      Alcotest.(check (array int)) "jobs=1 maps in order" (squares 17) out)

let test_order_preserved () =
  (* Skewed per-task cost, so late indices finish first if the pool ran
     them in parallel; the output must still land in input order. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let n = 64 in
      let work i =
        let spin = (n - i) * 2000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := (!acc + k) land 0xFFFF
        done;
        ignore (Sys.opaque_identity !acc);
        i * i
      in
      let out = Pool.run p (Array.init n Fun.id) work in
      Alcotest.(check (array int)) "jobs=4 preserves index order" (squares n) out)

let test_matches_sequential () =
  let input = Array.init 33 (fun i -> (i * 7919) mod 101) in
  let f x = (x * x) + (3 * x) + 1 in
  let seq = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d equals jobs=1" jobs)
            seq (Pool.run p input f)))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  Pool.with_pool ~jobs:3 (fun p ->
      let raised =
        match
          Pool.run p (Array.init 20 Fun.id) (fun i ->
              if i mod 7 = 3 then raise (Boom i) else i)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      (* Indices 3, 10 and 17 all fail; the re-raise is the lowest one, so
         the error a caller sees does not depend on scheduling. *)
      Alcotest.(check (option int)) "lowest failing index wins" (Some 3) raised);
  (* The pool variable is scoped inside with_pool; a failed batch must not
     poison the next one. *)
  Pool.with_pool ~jobs:3 (fun p ->
      (match Pool.run p [| 0; 1 |] (fun _ -> raise Exit) with
      | _ -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      let out = Pool.run p [| 2; 3 |] (fun x -> x + 1) in
      Alcotest.(check (array int)) "pool survives a failed batch" [| 3; 4 |] out)

let test_reuse_and_empty () =
  Pool.with_pool ~jobs:2 (fun p ->
      Alcotest.(check (array int)) "empty input" [||] (Pool.run p [||] (fun x -> x));
      Alcotest.(check (array int)) "singleton input" [| 9 |]
        (Pool.run p [| 3 |] (fun x -> x * x));
      for round = 1 to 5 do
        let out = Pool.run p (Array.init 8 Fun.id) (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 8 (fun i -> i + round))
          out
      done)

let test_resolve_jobs () =
  Alcotest.(check int) "positive passes through" 3 (Pool.resolve_jobs 3);
  Alcotest.(check int) "zero resolves to default"
    (Pool.default_jobs ()) (Pool.resolve_jobs 0);
  Alcotest.(check bool) "default is at least 1" true (Pool.default_jobs () >= 1)

(* A scratch value that knows whether a fill is using it. *)
type scratch = { id : int; mutable in_use : bool }

let counting_memo () =
  let made = Atomic.make 0 in
  let scratch () = { id = Atomic.fetch_and_add made 1; in_use = false } in
  (Pool.Memo.create ~scratch (), made)

let test_memo_lends_scratch () =
  List.iter
    (fun (jobs, max_made) ->
      let memo, made = counting_memo () in
      let shared = Atomic.make 0 in
      let fill k s =
        if s.in_use then Atomic.incr shared;
        s.in_use <- true;
        let acc = ref 0 in
        for i = 1 to 20_000 do
          acc := (!acc + (i * k)) land 0xFFFF
        done;
        ignore (Sys.opaque_identity !acc);
        s.in_use <- false;
        k * k
      in
      let keys = Array.init 2000 Fun.id in
      let out =
        Pool.with_pool ~jobs (fun p ->
            Pool.run p keys (fun k -> Pool.Memo.find_or_add memo k (fill k)))
      in
      let name what = Printf.sprintf "jobs=%d: %s" jobs what in
      Alcotest.(check (array int)) (name "values") (squares 2000) out;
      Alcotest.(check int) (name "no scratch lent twice at once") 0
        (Atomic.get shared);
      Alcotest.(check bool)
        (name (Printf.sprintf "1..%d scratch values made" max_made))
        true
        (Atomic.get made >= 1 && Atomic.get made <= max_made);
      Alcotest.(check int) (name "every key cached") 2000
        (Pool.Memo.length memo);
      (* Hits take no scratch. *)
      let before = Atomic.get made in
      Alcotest.(check int) (name "hit") 49
        (Pool.Memo.find_or_add memo 7 (fun _ -> Alcotest.fail "refilled"));
      Alcotest.(check int) (name "a hit makes nothing") before (Atomic.get made))
    [ (4, 4); (1, 1) ]

(* Fills on one domain, as at jobs = 1. *)
let test_memo_raising_fill () =
  let memo, made = counting_memo () in
  let first = ref (-1) in
  (match
     Pool.Memo.find_or_add memo 3 (fun s ->
         first := s.id;
         raise (Boom 3))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ());
  Alcotest.(check int) "a raising fill caches nothing" 0 (Pool.Memo.length memo);
  let again = Pool.Memo.find_or_add memo 3 (fun s -> s.id) in
  Alcotest.(check int) "the next fill gets the same scratch" !first again;
  Alcotest.(check int) "one scratch made" 1 (Atomic.get made);
  Alcotest.(check int) "now cached" 1 (Pool.Memo.length memo)

(* A bounded memo holds at most [capacity] keys and drops the least
   recently used one, where a hit counts as a use; a dropped key is
   filled again, to the same value, on its next miss. *)
let test_memo_bounded () =
  let fills = ref [] in
  let memo = Pool.Memo.bounded ~capacity:2 ~scratch:(fun () -> ()) () in
  let get k = Pool.Memo.find_or_add memo k (fun () -> fills := k :: !fills; k * k) in
  Alcotest.(check int) "fill 1" 1 (get 1);
  Alcotest.(check int) "fill 2" 4 (get 2);
  Alcotest.(check int) "hit 1" 1 (get 1);
  Alcotest.(check int) "fill 3" 9 (get 3);
  Alcotest.(check int) "at capacity" 2 (Pool.Memo.length memo);
  Alcotest.(check int) "1 kept: it was used after 2" 1 (get 1);
  Alcotest.(check int) "2 was dropped and refills" 4 (get 2);
  Alcotest.(check (list int)) "fill order" [ 2; 3; 2; 1 ] !fills;
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Pool.Memo.bounded: capacity < 1") (fun () ->
      ignore (Pool.Memo.bounded ~capacity:0 ~scratch:(fun () -> ()) ()))

let suite =
  [
    Alcotest.test_case "jobs=1 is a plain map" `Quick test_sequential_jobs1;
    Alcotest.test_case "index order preserved under skew" `Quick test_order_preserved;
    Alcotest.test_case "jobs=N equals jobs=1" `Quick test_matches_sequential;
    Alcotest.test_case "lowest-index exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "reuse, empty and singleton batches" `Quick test_reuse_and_empty;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "Memo lends each fill its own scratch" `Quick
      test_memo_lends_scratch;
    Alcotest.test_case "Memo: a raising fill gives its scratch back" `Quick
      test_memo_raising_fill;
    Alcotest.test_case "Memo.bounded drops the least recently used" `Quick
      test_memo_bounded;
  ]
