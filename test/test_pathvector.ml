module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Core = Disco_core
module Pathvector = Disco_pathvector.Pathvector
module Admission = Disco_pathvector.Admission

let check_full_tables g =
  let r = Pathvector.run ~graph:g ~mode:Pathvector.Full () in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    let sp = Dijkstra.sssp g s in
    for t = 0 to n - 1 do
      if t <> s && sp.Dijkstra.dist.(t) < infinity then begin
        match Hashtbl.find_opt r.Pathvector.tables.(s) t with
        | None -> Alcotest.failf "node %d missing route to %d" s t
        | Some route ->
            if Float.abs (route.Pathvector.dist -. sp.Dijkstra.dist.(t)) > 1e-9 then
              Alcotest.failf "node %d route to %d: %f <> %f" s t route.Pathvector.dist
                sp.Dijkstra.dist.(t)
      end
    done
  done;
  r

let test_full_converges_to_shortest () =
  ignore (check_full_tables (Helpers.random_graph ~n_min:10 ~n_max:30 3))

let test_full_weighted () =
  ignore (check_full_tables (Helpers.random_weighted_graph 5))

let test_paths_are_real () =
  let g = Helpers.random_graph ~n_min:10 ~n_max:25 7 in
  let r = Pathvector.run ~graph:g ~mode:Pathvector.Full () in
  Array.iteri
    (fun s table ->
      Hashtbl.iter
        (fun t route ->
          Helpers.check_path g ~src:s ~dst:t route.Pathvector.path;
          Alcotest.(check bool) "dist = path length" true
            (Float.abs (Helpers.path_len g route.Pathvector.path -. route.Pathvector.dist)
            < 1e-9))
        table)
    r.Pathvector.tables

let test_messages_positive () =
  let g = Helpers.random_graph 11 in
  let r = Pathvector.run ~graph:g ~mode:Pathvector.Full () in
  Alcotest.(check bool) "messages flowed" true (r.Pathvector.total_messages > 0);
  (* A non-forgetful control plane retains at least one announcement per
     route the data plane keeps (Theorem 2's delta factor). *)
  let sizes = Pathvector.table_sizes r in
  Array.iteri
    (fun v rib ->
      Alcotest.(check bool) "adj rib >= table" true (rib >= sizes.(v)))
    r.Pathvector.adj_rib_entries

let landmark_flags g ids =
  let flags = Array.make (Graph.n g) false in
  List.iter (fun v -> flags.(v) <- true) ids;
  flags

let test_vicinity_mode_respects_k () =
  let g = Helpers.random_graph ~n_min:20 ~n_max:40 13 in
  let flags = landmark_flags g [ 0 ] in
  let k = 5 in
  let r =
    Pathvector.run ~graph:g ~mode:(Pathvector.Landmarks_and_k_closest { landmarks = flags; k }) ()
  in
  Array.iteri
    (fun v table ->
      let non_landmark = ref 0 in
      Hashtbl.iter (fun d _ -> if not flags.(d) then incr non_landmark) table;
      if !non_landmark > k then
        Alcotest.failf "node %d has %d > %d vicinity routes" v !non_landmark k)
    r.Pathvector.tables

let test_vicinity_mode_finds_k_closest () =
  let g = Helpers.random_weighted_graph 17 in
  let flags = landmark_flags g [ 0 ] in
  let k = 6 in
  let r =
    Pathvector.run ~graph:g ~mode:(Pathvector.Landmarks_and_k_closest { landmarks = flags; k }) ()
  in
  (* The converged vicinity distances must equal the k smallest true
     distances (multiset equality; boundary ties may pick either node). *)
  let n = Graph.n g in
  for v = 0 to min 9 (n - 1) do
    let sp = Dijkstra.sssp g v in
    (* Candidates for vicinity slots: non-landmark nodes other than v. *)
    let truth =
      List.init n Fun.id
      |> List.filter (fun t -> t <> v && not flags.(t))
      |> List.map (fun t -> sp.Dijkstra.dist.(t))
      |> List.sort compare
    in
    let got = ref [] in
    Hashtbl.iter
      (fun d route -> if (not flags.(d)) && d <> v then got := route.Pathvector.dist :: !got)
      r.Pathvector.tables.(v);
    let got = List.sort compare !got in
    List.iteri
      (fun i dist ->
        let want = List.nth truth i in
        if Float.abs (dist -. want) > 1e-9 then
          Alcotest.failf "node %d: vicinity dist %d is %f, want %f" v i dist want)
      got
  done

let test_landmarks_always_kept () =
  let g = Helpers.random_graph ~n_min:15 ~n_max:30 19 in
  let ids = [ 1; 3 ] in
  let flags = landmark_flags g ids in
  let r =
    Pathvector.run ~graph:g ~mode:(Pathvector.Landmarks_and_k_closest { landmarks = flags; k = 2 }) ()
  in
  Array.iteri
    (fun v table ->
      List.iter
        (fun lm ->
          if v <> lm && not (Hashtbl.mem table lm) then
            Alcotest.failf "node %d missing landmark %d" v lm)
        ids)
    r.Pathvector.tables

let test_radius_mode_matches_clusters () =
  let g = Helpers.random_weighted_graph 23 in
  let n = Graph.n g in
  let ids = [ 0; n / 2 ] in
  let flags = landmark_flags g ids in
  let multi = Dijkstra.multi_source g (Array.of_list ids) in
  let radius = multi.Dijkstra.mdist in
  let r =
    Pathvector.run ~graph:g ~mode:(Pathvector.Landmarks_and_radius { landmarks = flags; radius }) ()
  in
  (* v holds a route to non-landmark w iff d(v,w) < d(w, l_w). Skip exact
     boundaries (e.g. v = l_w, where d(v,w) = radius(w)): the protocol sums
     edge weights in the opposite order from the oracle's Dijkstra, so the
     strict comparison can go either way in the last float bit. *)
  for v = 0 to n - 1 do
    let sp = Dijkstra.sssp g v in
    for w = 0 to n - 1 do
      if w <> v && (not flags.(w)) && Float.abs (sp.Dijkstra.dist.(w) -. radius.(w)) > 1e-9
      then begin
        let should = sp.Dijkstra.dist.(w) < radius.(w) in
        let has = Hashtbl.mem r.Pathvector.tables.(v) w in
        if should <> has then
          Alcotest.failf "cluster mismatch v=%d w=%d (want %b, got %b)" v w should has
      end
    done
  done

let test_table_sizes () =
  let g = Helpers.random_graph 29 in
  let r = Pathvector.run ~graph:g ~mode:Pathvector.Full () in
  let sizes = Pathvector.table_sizes r in
  Array.iter (fun s -> Alcotest.(check int) "full tables" (Graph.n g - 1) s) sizes

(* --- the shared admission rule ---

   One node's table (node 0 is its own entry, never counted) driven
   through random writes, against the rule both engines ran before
   Admission: one linear scan per decision for the count and the first
   farthest counted route. Distances come from four values, so the
   farthest routes tie. *)

type entry = { d : float; lm : bool }

let self = 0

let reference (t : entry Admission.t) ~k ~dist =
  let count = ref 0 and worst = ref (-1) and worst_dist = ref neg_infinity in
  Hashtbl.iter
    (fun dest r ->
      if (not r.lm) && dest <> self then begin
        incr count;
        if r.d > !worst_dist then begin
          worst_dist := r.d;
          worst := dest
        end
      end)
    t.Admission.routes;
  if !count < k then `Accept else if dist < !worst_dist then `Evict !worst else `Reject

let recount (t : entry Admission.t) =
  Hashtbl.fold
    (fun dest r (n, far) ->
      if r.lm || dest = self then (n, far) else (n + 1, Float.max far r.d))
    t.Admission.routes (0, neg_infinity)

(* Each op is (kind, dest, distance index, k or flag). *)
let admission_matches_scan ops =
  let t =
    Admission.create ~counted:(fun dest r -> dest <> self && not r.lm) ~dist:(fun r -> r.d) 4
  in
  List.for_all
    (fun (kind, dest, di, x) ->
      let dist = float_of_int (1 + di) in
      let ok =
        match kind with
        | 0 | 1 | 2 | 3 when dest <> self && not (Hashtbl.mem t.Admission.routes dest) ->
            let before = Hashtbl.length t.Admission.routes in
            let want = reference t ~k:x ~dist in
            let got = Admission.admit t ~k:x ~dist in
            let after = Hashtbl.length t.Admission.routes in
            if got then Admission.replace t dest { d = dist; lm = false };
            (match want with
            | `Accept -> got && after = before
            | `Reject -> (not got) && after = before
            | `Evict v -> got && after = before - 1 && not (Hashtbl.mem t.Admission.routes v))
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            (* A better, equal or worse route, to a landmark or not: every
               flag flip in both directions. *)
            Admission.replace t dest { d = dist; lm = x mod 2 = 0 };
            true
        | 6 | 7 | 8 ->
            Admission.remove t dest;
            true
        | _ ->
            Admission.reset t;
            true
      in
      let count, far = recount t in
      ok && t.Admission.count = count && t.Admission.bound >= far)
    ops

let prop_admission_matches_scan =
  Helpers.qtest "admission = linear scan" ~count:300
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 120)
        (quad (int_bound 9) (int_bound 11) (int_bound 3) (int_bound 13)))
    admission_matches_scan

(* Fixed-seed output of all three modes, pinned at the engine that scanned
   the table on every k-closest decision: every table's (dest, dist bits,
   path) in Hashtbl.iter order, the message count and the RIB sizes. *)
let mode_digests graph =
  let n = Graph.n graph in
  let params = Core.Params.default in
  let lm = Core.Landmarks.build ~rng:(Rng.create 5) ~params graph in
  let landmarks = lm.Core.Landmarks.is_landmark in
  List.map
    (fun mode ->
      let r = Pathvector.run ~graph ~mode () in
      let b = Buffer.create 65536 in
      Printf.bprintf b "msgs=%d rib:" r.Pathvector.total_messages;
      Array.iter (Printf.bprintf b " %d") r.Pathvector.adj_rib_entries;
      Array.iteri
        (fun v table ->
          Printf.bprintf b "\n%d:" v;
          Hashtbl.iter
            (fun d (route : Pathvector.route) ->
              Printf.bprintf b " %d %Lx" d (Int64.bits_of_float route.Pathvector.dist);
              List.iter (Printf.bprintf b ".%d") route.Pathvector.path)
            table)
        r.Pathvector.tables;
      Digest.to_hex (Digest.string (Buffer.contents b)))
    [
      Pathvector.Full;
      Pathvector.Landmarks_and_k_closest
        { landmarks; k = Core.Params.vicinity_size params ~n };
      Pathvector.Landmarks_and_radius { landmarks; radius = lm.Core.Landmarks.dist };
    ]

let test_modes_pinned () =
  List.iter
    (fun (what, graph, pinned) ->
      Alcotest.(check (list string)) (what ^ ": full, k-closest, radius") pinned
        (mode_digests graph))
    [
      ( "G(128, 512)",
        Gen.gnm ~rng:(Rng.create 41) ~n:128 ~m:512,
        [ "4c3a20bb92b5fddb6d1c54ad7452a144"; "7dff3a05d6261e0203d521887b8b2902";
          "c6e1f6edece44811857c4732b4eb6737" ] );
      ( "geometric n=96",
        Gen.geometric ~rng:(Rng.create 43) ~n:96 ~avg_degree:8.0,
        [ "8e710ae9d6a4a20b9ad2c56e54442c57"; "e4a3b5628e500a91da4b4122d42c508e";
          "77c29020985ebcf544259dc2bb2b31ea" ] );
    ]

let suite =
  [
    Alcotest.test_case "full mode converges to shortest paths" `Quick test_full_converges_to_shortest;
    Alcotest.test_case "full mode on weighted graph" `Quick test_full_weighted;
    Alcotest.test_case "paths are real paths" `Quick test_paths_are_real;
    Alcotest.test_case "message accounting" `Quick test_messages_positive;
    Alcotest.test_case "vicinity mode respects k" `Quick test_vicinity_mode_respects_k;
    Alcotest.test_case "vicinity mode finds k closest" `Quick test_vicinity_mode_finds_k_closest;
    Alcotest.test_case "landmarks always kept" `Quick test_landmarks_always_kept;
    Alcotest.test_case "radius mode = S4 clusters" `Quick test_radius_mode_matches_clusters;
    Alcotest.test_case "table sizes" `Quick test_table_sizes;
    prop_admission_matches_scan;
    Alcotest.test_case "fixed-seed tables are pinned" `Quick test_modes_pinned;
  ]
