(* L8 positive: one top-level Dijkstra workspace shared by every Pool
   task. A workspace holds one run at a time, so tasks on several domains
   would corrupt each other's runs. *)
let graph =
  let b = Disco_graph.Graph.Builder.create 3 in
  Disco_graph.Graph.Builder.add_edge b 0 1 1.0;
  Disco_graph.Graph.Builder.add_edge b 1 2 1.0;
  Disco_graph.Graph.Builder.build b

let ws = Disco_graph.Dijkstra.make_workspace graph

let views pool xs =
  Disco_util.Pool.run pool xs (fun x ->
      (Disco_graph.Dijkstra.k_closest ~ws graph x 2).Disco_graph.Dijkstra.order)
