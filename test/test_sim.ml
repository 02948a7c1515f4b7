module Graph = Disco_graph.Graph
module Sim = Disco_sim.Sim

let line () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 1 2 2.0;
  Graph.Builder.build b

let test_delivery_and_latency () =
  let g = line () in
  let sim = Sim.create ~graph:g () in
  let log = ref [] in
  Sim.set_handler sim (fun node ~src msg -> log := (node, src, msg, Sim.time sim) :: !log);
  Sim.send sim ~src:0 ~dst:1 "hello";
  Sim.run sim;
  Alcotest.(check int) "one delivery" 1 (List.length !log);
  let node, src, msg, at = List.hd !log in
  Alcotest.(check int) "dst" 1 node;
  Alcotest.(check int) "src" 0 src;
  Alcotest.(check string) "payload" "hello" msg;
  Alcotest.(check (float 1e-9)) "latency" 1.0 at

let test_non_adjacent_rejected () =
  let sim = Sim.create ~graph:(line ()) () in
  Sim.set_handler sim (fun _ ~src:_ _ -> ());
  Alcotest.check_raises "not adjacent" (Invalid_argument "Sim.send: src and dst are not adjacent")
    (fun () -> Sim.send sim ~src:0 ~dst:2 "x")

let test_send_direct () =
  let sim = Sim.create ~graph:(line ()) () in
  let got = ref false in
  Sim.set_handler sim (fun node ~src:_ _ -> if node = 2 then got := true);
  Sim.send_direct sim ~src:0 ~dst:2 ~latency:5.0 "overlay";
  Sim.run sim;
  Alcotest.(check bool) "delivered" true !got;
  Alcotest.(check (float 1e-9)) "time" 5.0 (Sim.time sim)

let test_ordering () =
  let sim = Sim.create ~graph:(line ()) () in
  let order = ref [] in
  Sim.set_handler sim (fun _ ~src:_ msg -> order := msg :: !order);
  Sim.send_direct sim ~src:0 ~dst:1 ~latency:3.0 "late";
  Sim.send_direct sim ~src:0 ~dst:1 ~latency:1.0 "early";
  Sim.send_direct sim ~src:0 ~dst:1 ~latency:3.0 "late2";
  Sim.run sim;
  Alcotest.(check (list string)) "time order, FIFO ties" [ "early"; "late"; "late2" ]
    (List.rev !order)

let test_message_accounting () =
  let sim = Sim.create ~graph:(line ()) () in
  Sim.set_handler sim (fun _ ~src:_ _ -> ());
  Sim.send sim ~src:0 ~dst:1 "a";
  Sim.send sim ~src:1 ~dst:2 "b";
  Sim.send sim ~src:1 ~dst:0 "c";
  Sim.run sim;
  Alcotest.(check int) "total" 3 (Sim.messages_sent sim)

let test_cascade () =
  (* Handler that relays along the line; checks handlers can send. *)
  let g = line () in
  let sim = Sim.create ~graph:g () in
  let reached = ref (-1) in
  Sim.set_handler sim (fun node ~src:_ msg ->
      reached := node;
      if node = 1 then Sim.send sim ~src:1 ~dst:2 msg);
  Sim.send sim ~src:0 ~dst:1 "relay";
  Sim.run sim;
  Alcotest.(check int) "reached end" 2 !reached;
  Alcotest.(check (float 1e-9)) "accumulated latency" 3.0 (Sim.time sim)

let test_schedule_timer () =
  let sim = Sim.create ~graph:(line ()) () in
  Sim.set_handler sim (fun _ ~src:_ _ -> ());
  let fired = ref 0.0 in
  Sim.schedule sim ~delay:7.5 (fun () -> fired := Sim.time sim);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "timer time" 7.5 !fired

let test_until () =
  let sim = Sim.create ~graph:(line ()) () in
  Sim.set_handler sim (fun _ ~src:_ _ -> ());
  let fired = ref false in
  Sim.schedule sim ~delay:10.0 (fun () -> fired := true);
  Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "not yet" false !fired;
  Sim.run sim;
  Alcotest.(check bool) "eventually" true !fired

let test_no_handler_rejected () =
  let sim = Sim.create ~graph:(line ()) () in
  Alcotest.check_raises "no handler" (Invalid_argument "Sim.run: no handler installed")
    (fun () -> Sim.run sim)

let suite =
  [
    Alcotest.test_case "delivery and latency" `Quick test_delivery_and_latency;
    Alcotest.test_case "non-adjacent rejected" `Quick test_non_adjacent_rejected;
    Alcotest.test_case "send direct" `Quick test_send_direct;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "cascade" `Quick test_cascade;
    Alcotest.test_case "schedule timer" `Quick test_schedule_timer;
    Alcotest.test_case "run until" `Quick test_until;
    Alcotest.test_case "no handler rejected" `Quick test_no_handler_rejected;
  ]
