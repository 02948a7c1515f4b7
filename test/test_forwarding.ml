module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
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

(* [Disco.best_group_proxy]'s fold over plain arrays: the member other
   than [dst] whose hash shares the longest prefix with [dst]'s, then the
   least distance; scanning ids upwards keeps the least id of equals. *)
let linear_proxy hashes members dists dst =
  let best = ref (-1) and best_len = ref (-1) and best_dist = ref infinity in
  Array.iteri
    (fun i w ->
      if w <> dst then begin
        let len = Disco_hash.Hash_space.common_prefix_len hashes.(w) hashes.(dst) in
        if len > !best_len || (len = !best_len && dists.(i) < !best_dist) then begin
          best := w;
          best_len := len;
          best_dist := dists.(i)
        end
      end)
    members;
  !best

(* The hash-order inputs over [hashes]: halves, nodes by (unsigned hash,
   id) as [Groups] orders them, and each node's rank in that order. *)
let hash_order hashes =
  let n = Array.length hashes in
  let hi = Array.map (fun h -> fst (Core.Packed.split64 h)) hashes in
  let lo = Array.map (fun h -> snd (Core.Packed.split64 h)) hashes in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Disco_hash.Hash_space.compare_unsigned hashes.(a) hashes.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  (hi, lo, order, rank)

(* [members]' ranks, ascending, at offset [pad] in a slab with [pad]
   entries of rank 0 on either side, which a read past the row's ends
   would take for a member. *)
let rank_row ?(pad = 0) rank members =
  let ranks = Array.map (fun w -> rank.(w)) members in
  Array.sort Int.compare ranks;
  let len = Array.length ranks + (2 * pad) in
  let row = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  Bigarray.Array1.fill row 0l;
  Array.iteri (fun i r -> row.{pad + i} <- Int32.of_int r) ranks;
  row

(* The proxy the lookup picks, as a node id ([-1] for none). *)
let lookup (hi, lo, order, rank) ?(pad = 0) members dists dst =
  let j =
    Forwarding.hash_order_proxy ~hi ~lo ~order ~rank ~row:(rank_row ~pad rank members)
      ~off:pad ~len:(Array.length members) ~members ~dists dst
  in
  if j < 0 then -1 else members.(j)

(* Crafted names: a hash copied whole from an earlier node (prefix length
   64), its top half kept with a fresh bottom half, it changed from a
   random bit down (every prefix length), an edge value, or random. Rows
   of 0, 1 or many members, distances from {1, 2, 3} so that ties occur,
   and every node as dst, inside the row and outside it. *)
let prop_hash_order_proxy_is_typed_rule =
  Helpers.qtest "hash-order proxy = typed rule on crafted rows" ~count:500
    Helpers.seed_arb (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 40 in
      let hashes = Array.make n 0L in
      for v = 0 to n - 1 do
        let earlier () = hashes.(Rng.int rng v) in
        hashes.(v) <-
          (match Rng.int rng 5 with
          | 0 when v > 0 -> earlier ()
          | 1 when v > 0 ->
              Int64.logor
                (Int64.logand (earlier ()) 0xffffffff00000000L)
                (Int64.shift_right_logical (Rng.bits64 rng) 32)
          | 2 when v > 0 ->
              let r = Rng.int rng 64 in
              Int64.logxor (earlier ())
                (Int64.shift_right_logical (Int64.logor (Rng.bits64 rng) Int64.min_int) r)
          | 3 ->
              [| 0L; 1L; 0x80000000L; 0xffffffffL; -1L; Int64.min_int |].(Rng.int rng 6)
          | _ -> Rng.bits64 rng)
      done;
      let ho = hash_order hashes in
      let members =
        match Rng.int rng 4 with
        | 0 -> [||]
        | 1 -> [| Rng.int rng n |]
        | _ ->
            let p = Rng.float rng 1.0 in
            Array.of_list (List.filter (fun _ -> Rng.bernoulli rng p) (List.init n Fun.id))
      in
      let dists = Array.map (fun _ -> float_of_int (1 + Rng.int rng 3)) members in
      let pad = Rng.int rng 3 in
      List.for_all
        (fun dst ->
          Int.equal (lookup ho ~pad members dists dst) (linear_proxy hashes members dists dst))
        (List.init n Fun.id))

(* On built Disco state, the lookup picks the proxy [classify_first]
   reports wherever the typed classification reaches the proxy choice. *)
let test_hash_order_proxy_on_views () =
  List.iter
    (fun seed ->
      let g, d = build seed in
      let nd = d.Disco.nd in
      let n = Graph.n g in
      let ((_, _, order, _) as ho) = hash_order nd.Core.Nddisco.hashes in
      Alcotest.(check (array int)) "Groups' hash order" (Core.Groups.sorted_ids d.Disco.groups)
        order;
      for u = 0 to n - 1 do
        let vw = Core.Vicinity.view nd.Core.Nddisco.vicinity u in
        for dst = 0 to n - 1 do
          let w = lookup ho vw.Core.Vicinity.members vw.Core.Vicinity.dists dst in
          match Disco.classify_first d ~src:u ~dst with
          | Disco.Via_group_member w' -> Alcotest.(check int) "proxy" w' w
          | Disco.Resolution_fallback ->
              Alcotest.(check bool) "no proxy in dst's group" true
                (w < 0 || not (Core.Groups.same_group d.Disco.groups w dst))
          | _ -> ()
        done
      done)
    [ 3; 5; 11 ]

(* The inverse rows on every generator family, k from 0 to n: each row
   is strictly ascending, each entry's index names its row's node in
   that view, the rows hold exactly as many entries as the views, and
   [inverse_find] finds w in V(u) at its index and nowhere else. *)
let prop_inverse_rows_transpose =
  Helpers.qtest "inverse rows are the vicinity table transposed" ~count:40
    (QCheck.pair (QCheck.int_range 0 (List.length Gen.all_kinds - 1)) Helpers.seed_arb)
    (fun (kind, seed) ->
      let rng = Rng.create seed in
      let n = 16 + Rng.int rng 80 in
      let g = Gen.by_kind ~rng (List.nth Gen.all_kinds kind) ~n in
      let vic = Core.Vicinity.create g ~k:(Rng.int rng (n + 1)) in
      let views = Array.init n (Core.Vicinity.view vic) in
      let inv = Forwarding.transpose views in
      let at slab p = Int32.to_int slab.{p} in
      let row_ok w =
        let lo = inv.Forwarding.ioff.(w) and hi = inv.Forwarding.ioff.(w + 1) in
        List.for_all
          (fun p ->
            let u = at inv.Forwarding.iu p and i = at inv.Forwarding.iidx p in
            (p = lo || at inv.Forwarding.iu (p - 1) < u)
            && u >= 0 && u < n && i >= 0
            && i < Array.length views.(u).Core.Vicinity.members
            && views.(u).Core.Vicinity.members.(i) = w)
          (List.init (hi - lo) (fun j -> lo + j))
      in
      let index_in u w =
        let m = views.(u).Core.Vicinity.members in
        let rec go i = if i >= Array.length m then -1 else if m.(i) = w then i else go (i + 1) in
        go 0
      in
      Array.length inv.Forwarding.ioff = n + 1
      && inv.Forwarding.ioff.(n)
         = Array.fold_left (fun s vw -> s + Array.length vw.Core.Vicinity.members) 0 views
      && List.for_all row_ok (List.init n Fun.id)
      && List.for_all
           (fun u ->
             List.for_all
               (fun w -> Forwarding.inverse_find inv w u = index_in u w)
               (List.init n Fun.id))
           (List.init n Fun.id))

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
    prop_hash_order_proxy_is_typed_rule;
    Alcotest.test_case "hash-order proxy on built views" `Quick test_hash_order_proxy_on_views;
    prop_inverse_rows_transpose;
  ]
