module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Vicinity = Disco_core.Vicinity

let test_members_are_k_closest () =
  let g = Helpers.random_weighted_graph 7 in
  let k = 6 in
  let vic = Vicinity.create g ~k in
  let n = Graph.n g in
  for v = 0 to n - 1 do
    let vw = Vicinity.view vic v in
    Alcotest.(check int) "size" (min k (n - 1)) (Array.length vw.Vicinity.members);
    let sp = Dijkstra.sssp g v in
    let dists =
      List.init n Fun.id
      |> List.filter (fun t -> t <> v)
      |> List.map (fun t -> sp.Dijkstra.dist.(t))
      |> List.sort compare
    in
    let got = Array.to_list vw.Vicinity.dists |> List.sort compare in
    List.iteri
      (fun i d ->
        Alcotest.(check bool) "distance multiset" true
          (Float.abs (d -. List.nth dists i) < 1e-9))
      got
  done

let test_excludes_owner () =
  let g = Helpers.random_graph 9 in
  let vic = Vicinity.create g ~k:5 in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check bool) "not own member" false (Vicinity.mem vic v v)
  done

let test_paths_valid_and_shortest () =
  let g = Helpers.random_weighted_graph 11 in
  let vic = Vicinity.create g ~k:8 in
  for v = 0 to min 9 (Graph.n g - 1) do
    let vw = Vicinity.view vic v in
    Array.iteri
      (fun i w ->
        match Vicinity.path vic v w with
        | None -> Alcotest.fail "member has no path"
        | Some p ->
            Helpers.check_path g ~src:v ~dst:w p;
            Alcotest.(check bool) "path length = dist" true
              (Float.abs (Helpers.path_len g p -. vw.Vicinity.dists.(i)) < 1e-9))
      vw.Vicinity.members
  done

(* d(v, w) read off v's view, if w is in V(v). *)
let dist vic v w =
  let vw = Vicinity.view vic v in
  let found = ref None in
  Array.iteri
    (fun i m -> if m = w then found := Some vw.Vicinity.dists.(i))
    vw.Vicinity.members;
  !found

let test_mem_dist_path_agree () =
  let g = Helpers.random_graph 13 in
  let vic = Vicinity.create g ~k:4 in
  for v = 0 to Graph.n g - 1 do
    for w = 0 to Graph.n g - 1 do
      let m = Vicinity.mem vic v w in
      Alcotest.(check bool) "dist agrees" m (dist vic v w <> None);
      Alcotest.(check bool) "path agrees" m (Vicinity.path vic v w <> None)
    done
  done

let test_radius () =
  let g = Helpers.random_weighted_graph 15 in
  let vic = Vicinity.create g ~k:5 in
  let vw = Vicinity.view vic 0 in
  let max_d = Array.fold_left max 0.0 vw.Vicinity.dists in
  Alcotest.(check (float 1e-9)) "radius = max member dist" max_d vw.Vicinity.radius

let test_first_hop_count () =
  let g = Helpers.random_graph 17 in
  let vic = Vicinity.create g ~k:8 in
  for v = 0 to Graph.n g - 1 do
    (* Members whose parent is v itself, stored as index -1: the
       distinct first hops v's vicinity routes use (Theorem 2's
       label-mapping state term). *)
    let fh =
      Array.fold_left
        (fun c p -> if p < 0 then c + 1 else c)
        0 (Vicinity.view vic v).Vicinity.parents
    in
    Alcotest.(check bool) "at least one" true (fh >= 1);
    Alcotest.(check bool) "at most degree" true (fh <= Graph.degree g v)
  done

let test_cache () =
  let g = Helpers.random_graph 19 in
  let vic = Vicinity.create g ~k:3 in
  Alcotest.(check int) "empty cache" 0 (Vicinity.cached_count vic);
  ignore (Vicinity.view vic 0);
  Alcotest.(check int) "one cached" 1 (Vicinity.cached_count vic);
  Vicinity.precompute_all vic;
  Alcotest.(check int) "all cached" (Graph.n g) (Vicinity.cached_count vic)

let test_k_zero () =
  let g = Helpers.random_graph 21 in
  let vic = Vicinity.create g ~k:0 in
  let vw = Vicinity.view vic 0 in
  Alcotest.(check int) "no members" 0 (Array.length vw.Vicinity.members)

let prop_vicinity_asymmetric_ok =
  Helpers.qtest "membership need not be symmetric but dist is" ~count:20
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let vic = Vicinity.create g ~k:5 in
      let ok = ref true in
      for v = 0 to min 9 (Graph.n g - 1) do
        for w = 0 to min 9 (Graph.n g - 1) do
          match (dist vic v w, dist vic w v) with
          | Some a, Some b -> if Float.abs (a -. b) > 1e-9 then ok := false
          | _ -> ()
        done
      done;
      !ok)

(* On graphs with float ties and several pieces, for k from 0 to n:
   every parent index stays in the view, every chain reaches -1 within k
   steps, and [path] follows real edges for exactly the Dijkstra
   distance. *)
let prop_parent_index_chains =
  Helpers.qtest "parent-index chains reach the owner" ~count:200 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.tie_graph seed in
      let n = Graph.n g in
      List.for_all
        (fun k ->
          let vic = Vicinity.create g ~k in
          List.for_all
            (fun v ->
              let vw = Vicinity.view vic v in
              let size = Array.length vw.Vicinity.members in
              let sp = Dijkstra.sssp g v in
              let rec steps j s =
                if j < 0 || s > k then s else steps vw.Vicinity.parents.(j) (s + 1)
              in
              Array.for_all (fun p -> p >= -1 && p < size) vw.Vicinity.parents
              && List.for_all
                   (fun i ->
                     let w = vw.Vicinity.members.(i) in
                     steps i 0 <= k
                     &&
                     match Vicinity.path vic v w with
                     | Some (first :: _ as p) ->
                         first = v
                         && List.nth p (List.length p - 1) = w
                         && Helpers.path_len g p = sp.Dijkstra.dist.(w)
                     | _ -> false)
                   (List.init size Fun.id))
            (List.init n Fun.id))
        [ 0; 1; 2; n / 2; n - 1; n ])

(* V(v) as the k_closest run minus the owner, sorted by id with
   [Array.sort]: members, distance bits and parent indexes (-1 for the
   owner). *)
let sorted_run ws g v k =
  let run = Dijkstra.k_closest ~ws g v (k + 1) in
  let idx =
    List.init (Array.length run.Dijkstra.order) Fun.id
    |> List.filter (fun i -> run.Dijkstra.order.(i) <> v)
    |> Array.of_list
  in
  Array.sort (fun a b -> Int.compare run.Dijkstra.order.(a) run.Dijkstra.order.(b)) idx;
  let members = Array.map (fun i -> run.Dijkstra.order.(i)) idx in
  let index = Hashtbl.create (Array.length members) in
  Array.iteri (fun j w -> Hashtbl.replace index w j) members;
  let parent i =
    let p = run.Dijkstra.tparent.(i) in
    if p = v then -1 else Hashtbl.find index p
  in
  ( members,
    Array.map (fun i -> Int64.bits_of_float run.Dijkstra.tdist.(i)) idx,
    Array.map parent idx )

(* The row is sorted by a radix sort whose two digits split the bits of
   the row's largest id, so n runs across each width change that
   matters: tiny rows, 6 to 7 bits, and 12 to 13 bits. Every node is
   checked, except that past n = 100 the rows of n/2 and n members are
   checked at every 101st node and the last three: all of them would
   take minutes. *)
let test_rows_match_sorted_runs () =
  List.iter
    (fun n ->
      let g = Disco_graph.Gen.gnm ~rng:(Disco_util.Rng.create n) ~n ~m:(2 * n) in
      let ws = Dijkstra.make_workspace g in
      List.iter
        (fun k ->
          let vic = Vicinity.create g ~k in
          let owners =
            if n <= 100 || k <= 1 then List.init n Fun.id
            else List.init ((n / 101) + 1) (fun i -> i * 101) @ [ n - 3; n - 2; n - 1 ]
          in
          List.iter
            (fun v ->
              let vw = Vicinity.view vic v in
              let members, dist_bits, parents = sorted_run ws g v k in
              let name what = Printf.sprintf "n=%d k=%d v=%d %s" n k v what in
              Alcotest.(check (array int)) (name "members") members vw.Vicinity.members;
              Alcotest.(check (array int64))
                (name "distance bits") dist_bits
                (Array.map Int64.bits_of_float vw.Vicinity.dists);
              Alcotest.(check (array int)) (name "parents") parents vw.Vicinity.parents)
            owners)
        [ 0; 1; n / 2; n ])
    [ 1; 2; 3; 4; 5; 63; 64; 65; 4095; 4096; 4097 ]

let suite =
  [
    Alcotest.test_case "members are k closest" `Quick test_members_are_k_closest;
    Alcotest.test_case "excludes owner" `Quick test_excludes_owner;
    Alcotest.test_case "paths valid and shortest" `Quick test_paths_valid_and_shortest;
    Alcotest.test_case "mem/dist/path agree" `Quick test_mem_dist_path_agree;
    Alcotest.test_case "radius" `Quick test_radius;
    Alcotest.test_case "first hop count" `Quick test_first_hop_count;
    Alcotest.test_case "cache" `Quick test_cache;
    Alcotest.test_case "k = 0" `Quick test_k_zero;
    Alcotest.test_case "rows match the sorted k_closest run" `Quick
      test_rows_match_sorted_runs;
    prop_vicinity_asymmetric_ok;
    prop_parent_index_chains;
  ]
