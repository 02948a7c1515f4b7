module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Nddisco = Disco_core.Nddisco
module Resolution = Disco_core.Resolution
module Landmarks = Disco_core.Landmarks
module Name = Disco_core.Name

let build seed =
  let g = Helpers.random_weighted_graph seed in
  let nd = Nddisco.build ~rng:(Rng.create seed) g in
  (g, nd, Resolution.build nd)

let test_owner_is_landmark () =
  let _, nd, res = build 3 in
  Array.iter
    (fun name ->
      let o = Resolution.owner res name in
      Alcotest.(check bool) "owner is landmark" true
        nd.Nddisco.landmarks.Landmarks.is_landmark.(o))
    nd.Nddisco.names

let test_entries_sum_to_n () =
  let g, _, res = build 5 in
  let stored = ref 0 in
  for v = 0 to Graph.n g - 1 do
    stored := !stored + Resolution.entries_at res v
  done;
  Alcotest.(check int) "all names stored" (Graph.n g) !stored

let test_entries_at_consistent () =
  let g, nd, res = build 7 in
  let owned = Array.make (Graph.n g) 0 in
  Array.iter
    (fun name ->
      let o = Resolution.owner res name in
      owned.(o) <- owned.(o) + 1)
    nd.Nddisco.names;
  Array.iter
    (fun lm ->
      Alcotest.(check int) "entries_at agrees" owned.(lm) (Resolution.entries_at res lm))
    nd.Nddisco.landmarks.Landmarks.ids;
  for v = 0 to Graph.n g - 1 do
    if not nd.Nddisco.landmarks.Landmarks.is_landmark.(v) then
      Alcotest.(check int) "non-landmark stores nothing" 0 (Resolution.entries_at res v)
  done

let test_owners_by_node () =
  let g, nd, res = build 9 in
  let owners = Resolution.owners_by_node res in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int) "cache matches owner()" (Resolution.owner res nd.Nddisco.names.(v)) owners.(v)
  done

let test_resolve_route_valid () =
  let g, _, res = build 11 in
  let n = Graph.n g in
  for s = 0 to min 10 (n - 1) do
    for t = 0 to min 10 (n - 1) do
      if s <> t then
        Helpers.check_path g ~src:s ~dst:t (Resolution.resolve_then_route res ~src:s ~dst:t)
    done
  done

let test_flat_names_arbitrary () =
  (* Any string works as a name: resolution treats names opaquely. *)
  let g = Helpers.random_graph ~n_min:20 ~n_max:21 17 in
  let names =
    Array.init (Graph.n g) (fun i ->
        match i mod 3 with
        | 0 -> Printf.sprintf "host-%d.example.com" i
        | 1 -> Printf.sprintf "00:1b:44:11:3a:%02x" i
        | _ -> Digest.to_hex (Digest.string (string_of_int i)))
  in
  let nd = Nddisco.build ~names ~rng:(Rng.create 17) g in
  let res = Resolution.build nd in
  Array.iter
    (fun name ->
      Alcotest.(check bool) "owner exists" true (Resolution.owner res name >= 0))
    names

let suite =
  [
    Alcotest.test_case "owner is landmark" `Quick test_owner_is_landmark;
    Alcotest.test_case "entries sum to n" `Quick test_entries_sum_to_n;
    Alcotest.test_case "entries_at consistent" `Quick test_entries_at_consistent;
    Alcotest.test_case "owners_by_node cache" `Quick test_owners_by_node;
    Alcotest.test_case "resolve route valid" `Quick test_resolve_route_valid;
    Alcotest.test_case "arbitrary flat names" `Quick test_flat_names_arbitrary;
  ]
