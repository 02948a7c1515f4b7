(* Shared assertions and generators for the test suite. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng

let check_path graph ~src ~dst path =
  (match path with
  | [] -> Alcotest.fail "empty path"
  | first :: _ ->
      Alcotest.(check int) "path starts at src" src first;
      Alcotest.(check int) "path ends at dst" dst (List.nth path (List.length path - 1)));
  let rec edges = function
    | [] | [ _ ] -> ()
    | u :: (v :: _ as rest) ->
        if Graph.edge_weight graph u v = None then
          Alcotest.failf "path uses non-edge %d-%d" u v;
        edges rest
  in
  edges path

let path_len graph path = Dijkstra.path_length graph path

(* Walk a scheme's typed [forward] from the header its source emits: the
   node path when the packet is delivered, [None] when it is dropped. *)
let walk ?ttl graph ~forward ~src header =
  Disco_experiments.Walk.path_of (Disco_core.Dataplane.walk ?ttl graph ~forward ~src header)

(* Small random connected graph for property tests. *)
let random_graph ?(n_min = 8) ?(n_max = 64) seed =
  let rng = Rng.create seed in
  let n = n_min + Rng.int rng (n_max - n_min) in
  Gen.gnm ~rng ~n ~m:(3 * n)

let random_weighted_graph seed =
  let rng = Rng.create seed in
  let n = 16 + Rng.int rng 48 in
  Gen.geometric ~rng ~n ~avg_degree:8.0

(* Small graphs in one to three pieces, with unit weights or weights
   drawn from {0, 1, 2, 3}. Graph.Builder rejects w <= 0, so weight 0
   stands for 2^-54: below half an ulp of 1.0, it vanishes when added to
   any distance >= 1, which makes the same float ties as a zero-weight
   edge would. *)
let tie_graph seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 24 in
  let pieces = 1 + Rng.int rng 3 in
  let unit = Rng.bool rng in
  let density = 0.1 +. Rng.float rng 0.4 in
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if u mod pieces = v mod pieces && Rng.float rng 1.0 < density
      then
        let w =
          if unit then 1.0
          else
            match Rng.int rng 4 with
            | 0 -> Float.ldexp 1.0 (-54)
            | c -> float_of_int c
        in
        Graph.Builder.add_edge b u v w
    done
  done;
  Graph.Builder.build b

(* A tree memo that pins no root, as the tradeoff figure makes for TZ:
   every tree goes through the bounded, least-recently-used store. *)
let unpinned_trees graph =
  Disco_core.Landmark_trees.create graph ~pinned:(Array.make (Graph.n graph) false)

(* Brute-force all-pairs shortest distances (Floyd-Warshall) for oracles. *)
let floyd graph =
  let n = Graph.n graph in
  let d = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.0
  done;
  List.iter
    (fun (u, v, w) ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end)
    (Graph.edges graph);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

let qtest name ?(count = 50) arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary prop)

let seed_arb = QCheck.int_range 1 1_000_000
