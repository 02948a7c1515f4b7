module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Core = Disco_core
module Disco = Disco_core.Disco
module Forwarding = Disco_core.Forwarding
module D = Disco_core.Dataplane

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Disco.build ~rng:(Rng.create seed) g)

(* Walk Disco's forward from [src] over the header a source emits. *)
let walk d ~src header =
  let g = d.Disco.nd.Core.Nddisco.graph in
  D.walk
    ~ttl:(Forwarding.ttl_factor * Graph.n g)
    g ~forward:(Forwarding.forward d) ~src header

let first_packet d ~src ~dst = walk d ~src (Forwarding.first_header d ~src ~dst)
let later_packet d ~src ~dst = walk d ~src (Forwarding.later_header d ~src ~dst)

let test_delivery_all_pairs () =
  let g, d = build 3 in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then begin
        let tr = first_packet d ~src:s ~dst:t in
        Alcotest.(check bool) (Printf.sprintf "%d->%d delivered" s t) true tr.D.delivered;
        Helpers.check_path g ~src:s ~dst:t tr.D.path;
        let tr' = later_packet d ~src:s ~dst:t in
        Alcotest.(check bool) "later delivered" true tr'.D.delivered;
        Helpers.check_path g ~src:s ~dst:t tr'.D.path
      end
    done
  done

let test_matches_control_plane () =
  (* The data-plane walk and the static route computation must produce
     routes of identical length under the same (to-destination)
     heuristic — tie-breaking may pick different equal-length paths. *)
  let g, d = build 5 in
  let n = Graph.n g in
  for s = 0 to min 20 (n - 1) do
    for t = 0 to min 20 (n - 1) do
      if s <> t then begin
        let tr = first_packet d ~src:s ~dst:t in
        let route =
          Disco.route_first ~heuristic:Core.Shortcut.To_destination d ~src:s ~dst:t
        in
        let lf = Helpers.path_len g tr.D.path in
        let lc = Helpers.path_len g route in
        if Float.abs (lf -. lc) > 1e-9 then
          Alcotest.failf "%d->%d: forwarded %.6f vs computed %.6f" s t lf lc
      end
    done
  done

let test_later_matches_control_plane () =
  let g, d = build 7 in
  let n = Graph.n g in
  for s = 0 to min 20 (n - 1) do
    for t = 0 to min 20 (n - 1) do
      if s <> t then begin
        let tr = later_packet d ~src:s ~dst:t in
        let route =
          Disco.route_later ~heuristic:Core.Shortcut.To_destination d ~src:s ~dst:t
        in
        let lf = Helpers.path_len g tr.D.path in
        let lc = Helpers.path_len g route in
        if lf > lc +. 1e-9 then
          Alcotest.failf "%d->%d: forwarded %.6f worse than computed %.6f" s t lf lc
      end
    done
  done

let test_handshake_iff_in_vicinity () =
  (* The destination reveals its exact path to the source iff the source
     is in its vicinity; the later header carries that path, and
     otherwise the address route through the destination's landmark. *)
  let g, d = build 9 in
  let nd = d.Disco.nd in
  let n = Graph.n g in
  for s = 0 to min 15 (n - 1) do
    for t = 0 to min 15 (n - 1) do
      if s <> t then begin
        let p = s :: (Forwarding.later_header d ~src:s ~dst:t).D.labels in
        Helpers.check_path g ~src:s ~dst:t p;
        match Core.Vicinity.path nd.Core.Nddisco.vicinity t s with
        | Some handshake ->
            Alcotest.(check (list int))
              (Printf.sprintf "handshake %d->%d" s t)
              (List.rev handshake) p;
            (* The revealed path is exact. *)
            let sp = Disco_graph.Dijkstra.distance g s t in
            Alcotest.(check bool) "handshake path is shortest" true
              (Float.abs (Helpers.path_len g p -. sp) < 1e-9)
        | None ->
            Alcotest.(check bool)
              (Printf.sprintf "no handshake %d->%d: via the address landmark" s t)
              true
              (List.mem (Core.Nddisco.address_landmark nd t) p)
      end
    done
  done

let test_steps_recorded () =
  let _, d = build 11 in
  let tr = first_packet d ~src:0 ~dst:7 in
  let steps = tr.D.steps in
  Alcotest.(check bool) "has decisions" true (List.length steps > 0);
  let last = List.nth steps (List.length steps - 1) in
  (* Typed action, not a string to pattern-match on. *)
  Alcotest.(check bool) "last is deliver" true (last.D.action = D.Delivered);
  Alcotest.(check int) "deliver at destination" 7 last.D.at

let test_trivial () =
  let _, d = build 13 in
  let tr = first_packet d ~src:4 ~dst:4 in
  Alcotest.(check bool) "delivered" true tr.D.delivered;
  Alcotest.(check (list int)) "stays put" [ 4 ] tr.D.path;
  Alcotest.(check int) "no hops" 0 tr.D.hops

let test_pp_trace () =
  let _, d = build 15 in
  let tr = first_packet d ~src:0 ~dst:9 in
  let s = Format.asprintf "%a" D.pp_trace tr in
  Alcotest.(check bool) "renders" true (String.length s > 10)

let prop_first_packet_stretch_bound =
  Helpers.qtest "forwarded first packets respect stretch 7 w.h.p." ~count:10
    Helpers.seed_arb (fun seed ->
      let g, d = build seed in
      let nd = d.Disco.nd in
      (* Theorem precondition, as in test_disco_core. *)
      let precondition =
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          if not nd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark.(v) then begin
            let vw = Core.Vicinity.view nd.Core.Nddisco.vicinity v in
            if
              not
                (Array.exists
                   (fun w -> nd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark.(w))
                   vw.Core.Vicinity.members)
            then ok := false
          end
        done;
        !ok
      in
      QCheck.assume precondition;
      let ws = Disco_graph.Dijkstra.make_workspace g in
      let ok = ref true in
      for s = 0 to min 10 (Graph.n g - 1) do
        let sp = Disco_graph.Dijkstra.sssp ~ws g s in
        for t = 0 to Graph.n g - 1 do
          if
            s <> t
            && sp.Disco_graph.Dijkstra.dist.(t) > 0.0
            && sp.Disco_graph.Dijkstra.dist.(t) < infinity
          then begin
            let tr = first_packet d ~src:s ~dst:t in
            (match Disco.classify_first d ~src:s ~dst:t with
            | Disco.Resolution_fallback -> () (* no bound in the fallback *)
            | _ ->
                if
                  Helpers.path_len g tr.D.path
                  /. sp.Disco_graph.Dijkstra.dist.(t)
                  > 7.0 +. 1e-9
                then ok := false);
            if not tr.D.delivered then ok := false
          end
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "delivery between all pairs" `Quick test_delivery_all_pairs;
    Alcotest.test_case "first packet matches control plane" `Quick test_matches_control_plane;
    Alcotest.test_case "later packet matches control plane" `Quick test_later_matches_control_plane;
    Alcotest.test_case "handshake iff in vicinity" `Quick test_handshake_iff_in_vicinity;
    Alcotest.test_case "steps recorded" `Quick test_steps_recorded;
    Alcotest.test_case "trivial" `Quick test_trivial;
    Alcotest.test_case "pp_trace" `Quick test_pp_trace;
    prop_first_packet_stretch_bound;
  ]
