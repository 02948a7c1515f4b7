module Heap = Disco_util.Heap

(* Pop every entry, reading each one's priority first. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let p = Heap.min_prio h in
      let v = Heap.pop_min h in
      go ((p, v) :: acc)
    end
  in
  go []

let test_empty () =
  let h = Heap.create "filler" in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check (float 0.0)) "min_prio" infinity (Heap.min_prio h);
  Alcotest.(check string) "pop_min gives the filler" "filler" (Heap.pop_min h);
  Alcotest.(check int) "size after pop" 0 (Heap.size h)

let test_ordering () =
  let h = Heap.create 0.0 in
  List.iter (fun p -> Heap.push h p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = List.map fst (drain h) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] out

let test_tie_break_fifo () =
  let h = Heap.create "?" in
  Heap.push h 1.0 "first";
  Heap.push h 1.0 "second";
  Heap.push h 1.0 "third";
  Alcotest.(check string) "fifo 1" "first" (Heap.pop_min h);
  Alcotest.(check string) "fifo 2" "second" (Heap.pop_min h);
  Alcotest.(check string) "fifo 3" "third" (Heap.pop_min h)

let test_peek_not_destructive () =
  let h = Heap.create ' ' in
  Heap.push h 2.0 'a';
  Alcotest.(check (float 0.0)) "min_prio" 2.0 (Heap.min_prio h);
  Alcotest.(check (float 0.0)) "min_prio again" 2.0 (Heap.min_prio h);
  Alcotest.(check int) "size unchanged" 1 (Heap.size h);
  Alcotest.(check char) "then pops" 'a' (Heap.pop_min h)

let test_clear () =
  let h = Heap.create 0 in
  for i = 1 to 10 do
    Heap.push h (float_of_int i) i
  done;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Heap.push h 1.0 1;
  Alcotest.(check (list (pair (float 0.0) int))) "usable after clear" [ (1.0, 1) ] (drain h)

(* A popped value is garbage once its caller drops it: the heap keeps no
   copy in the slot the pop emptied. The heap itself stays reachable. *)
let test_popped_collectable () =
  let h = Heap.create (ref (-1)) in
  let w = Weak.create 4 in
  let fill () =
    for i = 0 to 3 do
      let v = ref i in
      Weak.set w i (Some v);
      Heap.push h (float_of_int (i mod 2)) v
    done;
    for _ = 0 to 3 do
      ignore (Sys.opaque_identity (Heap.pop_min h) : int ref)
    done
  in
  fill ();
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false (Weak.check w i)
  done;
  Alcotest.(check int) "heap still alive" 0 (Heap.size (Sys.opaque_identity h))

let prop_sorted =
  Helpers.qtest "pops come out sorted" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun priorities ->
      let h = Heap.create 0.0 in
      List.iter (fun p -> Heap.push h p p) priorities;
      let out = List.map fst (drain h) in
      List.equal Float.equal out (List.sort Float.compare priorities))

let prop_size =
  Helpers.qtest "size tracks pushes and pops" ~count:100
    QCheck.(list (float_range 0.0 10.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p ()) priorities;
      let n = List.length priorities in
      Heap.size h = n
      &&
      (Heap.pop_min h;
       Heap.size h = max 0 (n - 1)))

type op = Push of float | Pop | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun p -> Push p) (oneofl [ 0.0; 1.0; 1.5; 2.0; infinity ]));
        (4, return Pop);
        (1, return Clear);
      ])

let show_op = function
  | Push p -> Printf.sprintf "push %g" p
  | Pop -> "pop"
  | Clear -> "clear"

(* The reference: entries (priority, push number) kept sorted by exactly
   that pair, so its head is what the heap must pop. A pushed value is
   its push number. *)
let prop_model =
  Helpers.qtest "matches a (priority, push order) model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let h = Heap.create (-1) in
      let insert e model =
        List.merge
          (fun (p, s) (q, r) ->
            match Float.compare p q with 0 -> Int.compare s r | c -> c)
          [ e ] model
      in
      let step (model, pushed) op =
        let model, pushed =
          match op with
          | Push p ->
              Heap.push h p pushed;
              (insert (p, pushed) model, pushed + 1)
          | Pop -> (
              let got = Heap.pop_min h in
              match model with
              | [] ->
                  if got <> -1 then QCheck.Test.fail_reportf "empty pop gave %d" got;
                  ([], pushed)
              | (_, s) :: rest ->
                  if got <> s then QCheck.Test.fail_reportf "popped %d, expected %d" got s;
                  (rest, pushed))
          | Clear ->
              Heap.clear h;
              ([], pushed)
        in
        let want_min = match model with [] -> infinity | (p, _) :: _ -> p in
        if Heap.size h <> List.length model then
          QCheck.Test.fail_reportf "size %d, expected %d" (Heap.size h) (List.length model);
        if not (Float.equal (Heap.min_prio h) want_min) then
          QCheck.Test.fail_reportf "min_prio %g, expected %g" (Heap.min_prio h) want_min;
        (model, pushed)
      in
      ignore (List.fold_left step ([], 0) ops : (float * int) list * int);
      true)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "tie break is FIFO" `Quick test_tie_break_fifo;
    Alcotest.test_case "peek not destructive" `Quick test_peek_not_destructive;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "popped values are collectable" `Quick test_popped_collectable;
    prop_sorted;
    prop_size;
    prop_model;
  ]
