module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra

(* A weighted diamond:  0 -1- 1 -1- 3,  0 -5- 2 -1- 3. *)
let diamond () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 1 3 1.0;
  Graph.Builder.add_edge b 0 2 5.0;
  Graph.Builder.add_edge b 2 3 1.0;
  Graph.Builder.build b

let test_sssp_diamond () =
  let g = diamond () in
  let r = Dijkstra.sssp g 0 in
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 3.0; 2.0 |] r.Dijkstra.dist;
  Alcotest.(check int) "parent of 2 is 3 (via short side)" 3 r.Dijkstra.parent.(2);
  Alcotest.(check int) "source parent" (-1) r.Dijkstra.parent.(0)

let test_distance_early_exit () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "0->3" 2.0 (Dijkstra.distance g 0 3);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Dijkstra.distance g 2 2)

let test_unreachable () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.0;
  let g = Graph.Builder.build b in
  let r = Dijkstra.sssp g 0 in
  Alcotest.(check (float 1e-9)) "infinite" infinity r.Dijkstra.dist.(2);
  Alcotest.(check (float 1e-9)) "distance inf" infinity (Dijkstra.distance g 0 2)

let test_k_closest () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 3 in
  Alcotest.(check (array int)) "settle order" [| 0; 1; 3 |] t.Dijkstra.order;
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 2.0 |] t.Dijkstra.tdist;
  Alcotest.(check int) "parent of 1" 0 t.Dijkstra.tparent.(1);
  Alcotest.(check int) "parent of 3" 1 t.Dijkstra.tparent.(2)

let test_k_closest_caps_at_n () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 100 in
  Alcotest.(check int) "all nodes" 4 (Array.length t.Dijkstra.order)

let test_within_radius_strict () =
  let g = diamond () in
  let t = Dijkstra.within_radius g 0 2.0 in
  (* Strictly less than 2.0: nodes 0 (0.0) and 1 (1.0) only. *)
  Alcotest.(check (array int)) "strict ball" [| 0; 1 |] t.Dijkstra.order

let test_multi_source () =
  let g = diamond () in
  let m = Dijkstra.multi_source g [| 1; 2 |] in
  Alcotest.(check (float 1e-9)) "node 0" 1.0 m.Dijkstra.mdist.(0);
  Alcotest.(check int) "node 0 source" 1 m.Dijkstra.msource.(0);
  Alcotest.(check (float 1e-9)) "node 3" 1.0 m.Dijkstra.mdist.(3);
  Alcotest.(check int) "source at source" 2 m.Dijkstra.msource.(2);
  Alcotest.(check (float 1e-9)) "source dist" 0.0 m.Dijkstra.mdist.(2)

let test_path_of_parents () =
  let g = diamond () in
  let r = Dijkstra.sssp g 0 in
  let p = Dijkstra.path_of_parents ~parent:(fun v -> r.Dijkstra.parent.(v)) ~src:0 ~dst:3 in
  Alcotest.(check (list int)) "path" [ 0; 1; 3 ] p

let test_path_length () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "length" 7.0 (Dijkstra.path_length g [ 2; 0; 1; 3 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Dijkstra.path_length g [ 1 ]);
  Alcotest.check_raises "non-path" (Invalid_argument "Dijkstra.path_length: not a path")
    (fun () -> ignore (Dijkstra.path_length g [ 0; 3 ]))

(* Node id -> (distance, predecessor) over a truncated run's settled set. *)
let truncated_lookup (t : Dijkstra.truncated) =
  let tbl = Hashtbl.create (2 * Array.length t.Dijkstra.order) in
  Array.iteri
    (fun i v -> Hashtbl.replace tbl v (t.Dijkstra.tdist.(i), t.Dijkstra.tparent.(i)))
    t.Dijkstra.order;
  fun v -> Hashtbl.find_opt tbl v

let test_truncated_lookup () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 3 in
  let lookup = truncated_lookup t in
  Alcotest.(check bool) "settled found" true (lookup 1 = Some (1.0, 0));
  Alcotest.(check bool) "unsettled absent" true (lookup 2 = None)

let test_workspace_reuse () =
  let g = diamond () in
  let ws = Dijkstra.make_workspace g in
  let r1 = Dijkstra.sssp ~ws g 0 in
  let r2 = Dijkstra.sssp ~ws g 2 in
  let r1' = Dijkstra.sssp ~ws g 0 in
  Alcotest.(check (array (float 1e-9))) "idempotent" r1.Dijkstra.dist r1'.Dijkstra.dist;
  Alcotest.(check (float 1e-9)) "second run correct" 1.0 r2.Dijkstra.dist.(3)

let prop_matches_floyd =
  Helpers.qtest "sssp matches Floyd-Warshall" ~count:20 Helpers.seed_arb (fun seed ->
      let g = Helpers.random_graph ~n_min:8 ~n_max:24 seed in
      let oracle = Helpers.floyd g in
      let ok = ref true in
      for s = 0 to Graph.n g - 1 do
        let r = Dijkstra.sssp g s in
        for t = 0 to Graph.n g - 1 do
          if Float.abs (r.Dijkstra.dist.(t) -. oracle.(s).(t)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_weighted_matches_floyd =
  Helpers.qtest "sssp matches Floyd on weighted graphs" ~count:10 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let oracle = Helpers.floyd g in
      let ok = ref true in
      for s = 0 to min 7 (Graph.n g - 1) do
        let r = Dijkstra.sssp g s in
        for t = 0 to Graph.n g - 1 do
          if
            r.Dijkstra.dist.(t) < infinity
            && Float.abs (r.Dijkstra.dist.(t) -. oracle.(s).(t)) > 1e-9
          then ok := false
        done
      done;
      !ok)

let prop_k_closest_agrees_with_sssp =
  Helpers.qtest "k_closest = k smallest sssp distances" ~count:30 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_graph seed in
      let src = seed mod Graph.n g in
      let k = 1 + (seed mod 10) in
      let t = Dijkstra.k_closest g src k in
      let r = Dijkstra.sssp g src in
      let all = Array.init (Graph.n g) (fun v -> r.Dijkstra.dist.(v)) in
      Array.sort compare all;
      let ok = ref (Array.length t.Dijkstra.order = min k (Graph.n g)) in
      Array.iteri
        (fun i v ->
          (* The i-th settled distance equals the i-th smallest distance
             (ties may swap nodes, never distances). *)
          if Float.abs (t.Dijkstra.tdist.(i) -. all.(i)) > 1e-9 then ok := false;
          if Float.abs (t.Dijkstra.tdist.(i) -. r.Dijkstra.dist.(v)) > 1e-9 then
            ok := false)
        t.Dijkstra.order;
      !ok)

let prop_within_radius_agrees_with_sssp =
  Helpers.qtest "within_radius = full sssp restricted to the open ball" ~count:30
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let r = Dijkstra.sssp g src in
      (* Radii straddling the distance spectrum, including 0 (empty-but-src
         ball is impossible: d(src,src) = 0 < r fails, so 0 settles nothing
         only if r <= 0; use strictly positive radii plus one exact
         distance value to exercise the strict-< boundary). *)
      let some_dist =
        r.Dijkstra.dist.((src + 1) mod Graph.n g)
      in
      let radii = [ 0.0; some_dist; some_dist +. 1e-9; max 1.0 (2.0 *. some_dist) ] in
      List.for_all
        (fun radius ->
          let t = Dijkstra.within_radius g src radius in
          let lookup = truncated_lookup t in
          let ok = ref true in
          for v = 0 to Graph.n g - 1 do
            let inside = r.Dijkstra.dist.(v) < radius in
            match lookup v with
            | Some (d, _) ->
                if not inside then ok := false;
                if Float.abs (d -. r.Dijkstra.dist.(v)) > 1e-9 then ok := false
            | None -> if inside then ok := false
          done;
          !ok)
        radii)

let prop_k_closest_weighted_parents =
  Helpers.qtest "truncated parent chains realize full-sssp distances" ~count:30
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let k = 1 + (seed mod Graph.n g) in
      let t = Dijkstra.k_closest g src k in
      let r = Dijkstra.sssp g src in
      let lookup = truncated_lookup t in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if Float.abs (t.Dijkstra.tdist.(i) -. r.Dijkstra.dist.(v)) > 1e-9 then
            ok := false;
          if v <> src then begin
            (* Predecessors are settled earlier, so the lookup-based parent
               walk must reach src realizing exactly tdist. *)
            let parent w = match lookup w with Some (_, p) -> p | None -> -2 in
            let p = Dijkstra.path_of_parents ~parent ~src ~dst:v in
            if Float.abs (Dijkstra.path_length g p -. t.Dijkstra.tdist.(i)) > 1e-9 then
              ok := false
          end)
        t.Dijkstra.order;
      !ok)

let prop_parents_form_shortest_paths =
  Helpers.qtest "parent chains realize dist" ~count:20 Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let r = Dijkstra.sssp g src in
      let ok = ref true in
      for t = 0 to Graph.n g - 1 do
        if r.Dijkstra.dist.(t) < infinity && t <> src then begin
          let p =
            Dijkstra.path_of_parents ~parent:(fun v -> r.Dijkstra.parent.(v)) ~src ~dst:t
          in
          if Float.abs (Dijkstra.path_length g p -. r.Dijkstra.dist.(t)) > 1e-9 then
            ok := false
        end
      done;
      !ok)

(* The truncated search, written plainly and with no bound: the frontier
   is ordered by (distance, push order), a stale entry is skipped when it
   comes out, and a node's distance and parent change only on a strict
   improvement. It settles the min k n closest nodes. *)
let plain_k_closest g src k =
  let n = Graph.n g in
  let dist = Array.make n infinity and par = Array.make n (-1) in
  let settled = Array.make n false in
  let frontier = ref [] and pushes = ref 0 in
  let push d v =
    frontier := (d, !pushes, v) :: !frontier;
    incr pushes
  in
  let earlier (d, i, _) (d', i', _) = d < d' || (d = d' && i < i') in
  dist.(src) <- 0.0;
  push 0.0 src;
  let order = ref [] in
  while List.length !order < min k n && !frontier <> [] do
    let first =
      List.fold_left
        (fun a e -> if earlier e a then e else a)
        (List.hd !frontier) !frontier
    in
    frontier := List.filter (fun e -> e != first) !frontier;
    let d, _, u = first in
    if not settled.(u) then begin
      settled.(u) <- true;
      order := u :: !order;
      Graph.iter_neighbors g u (fun v w ->
          let nd = d +. w in
          if (not settled.(v)) && nd < dist.(v) then begin
            dist.(v) <- nd;
            par.(v) <- u;
            push nd v
          end)
    end
  done;
  let order = Array.of_list (List.rev !order) in
  {
    Dijkstra.source = src;
    order;
    tdist = Array.map (fun v -> dist.(v)) order;
    tparent = Array.map (fun v -> par.(v)) order;
  }

let prop_k_closest_exact =
  Helpers.qtest "k_closest = plain truncated Dijkstra, array by array"
    ~count:300 Helpers.seed_arb (fun seed ->
      let g = Helpers.tie_graph seed in
      let n = Graph.n g in
      let ws = Dijkstra.make_workspace g in
      let bits a = Array.map Int64.bits_of_float a in
      List.for_all
        (fun k ->
          List.for_all
            (fun src ->
              let got = Dijkstra.k_closest ~ws g src k in
              let want = plain_k_closest g src k in
              got.Dijkstra.order = want.Dijkstra.order
              && bits got.Dijkstra.tdist = bits want.Dijkstra.tdist
              && got.Dijkstra.tparent = want.Dijkstra.tparent)
            (List.init n Fun.id))
        [ 0; 1; 2; n / 2; n; n + 3 ])

(* 0 -1- 1 -1- 3, 0 -2- 2 -0.5- 4. With k = 3 the source's scan reaches
   1 at 1 and 2 at 2, which fixes B = 2. Node 1's neighbours are scanned
   (1 + 0.5 < B), and 3 is first reached there at exactly B, after B is
   fixed: the search skips that push, as 2's earlier push at B settles
   first. *)
let test_k_closest_tie_at_cap () =
  let b = Graph.Builder.create 5 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 1 3 1.0;
  Graph.Builder.add_edge b 0 2 2.0;
  Graph.Builder.add_edge b 2 4 0.5;
  let g = Graph.Builder.build b in
  let ws = Dijkstra.make_workspace g in
  let bits a = Array.map Int64.bits_of_float a in
  for k = 1 to 6 do
    let want = plain_k_closest g 0 k in
    List.iter
      (fun got ->
        let name what = Printf.sprintf "k=%d %s" k what in
        Alcotest.(check (array int)) (name "order") want.Dijkstra.order got.Dijkstra.order;
        Alcotest.(check (array int64))
          (name "distance bits") (bits want.Dijkstra.tdist) (bits got.Dijkstra.tdist);
        Alcotest.(check (array int)) (name "parents") want.Dijkstra.tparent
          got.Dijkstra.tparent)
      [ Dijkstra.k_closest g 0 k; Dijkstra.k_closest ~ws g 0 k ]
  done;
  Alcotest.(check (array int)) "k=3 keeps 2, not 3" [| 0; 1; 2 |]
    (Dijkstra.k_closest g 0 3).Dijkstra.order

(* Minor words per settled node of a run on a lent workspace, on
   G(1024, 4096): the heap, the settle loop and the relaxation allocate
   nothing per node, so what is left is a boxed priority per push and
   the result arrays. A record or closure per heap entry or per relaxed
   edge costs tens of words per node. *)
let test_kernel_minor_words () =
  let g = Disco_graph.Gen.gnm ~rng:(Disco_util.Rng.create 5) ~n:1024 ~m:4096 in
  let ws = Dijkstra.make_workspace g in
  let per_settled name run settled =
    ignore (run 0 : int);
    let words = ref 0.0 and nodes = ref 0 in
    for src = 0 to 63 do
      let before = Gc.minor_words () in
      let s = run src in
      words := !words +. (Gc.minor_words () -. before);
      nodes := !nodes + s
    done;
    let per = !words /. float_of_int !nodes in
    if per > settled then
      Alcotest.failf "%s: %.1f minor words per settled node (bound %.0f)" name per settled
  in
  let finite a = Array.fold_left (fun c d -> if d < infinity then c + 1 else c) 0 a in
  per_settled "sssp" (fun src -> finite (Dijkstra.sssp ~ws g src).Dijkstra.dist) 8.0;
  per_settled "k_closest"
    (fun src -> Array.length (Dijkstra.k_closest ~ws g src 33).Dijkstra.order)
    12.0

let suite =
  [
    Alcotest.test_case "sssp diamond" `Quick test_sssp_diamond;
    Alcotest.test_case "distance early exit" `Quick test_distance_early_exit;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "k_closest" `Quick test_k_closest;
    Alcotest.test_case "k_closest caps at n" `Quick test_k_closest_caps_at_n;
    Alcotest.test_case "within_radius strict" `Quick test_within_radius_strict;
    Alcotest.test_case "multi_source" `Quick test_multi_source;
    Alcotest.test_case "path_of_parents" `Quick test_path_of_parents;
    Alcotest.test_case "path_length" `Quick test_path_length;
    Alcotest.test_case "truncated_lookup" `Quick test_truncated_lookup;
    Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
    Alcotest.test_case "k_closest skips ties at the cap" `Quick test_k_closest_tie_at_cap;
    Alcotest.test_case "kernel minor words per settled node" `Quick test_kernel_minor_words;
    prop_matches_floyd;
    prop_weighted_matches_floyd;
    prop_k_closest_agrees_with_sssp;
    prop_k_closest_exact;
    prop_within_radius_agrees_with_sssp;
    prop_k_closest_weighted_parents;
    prop_parents_form_shortest_paths;
  ]
