(* L8 negative: shared state is behind Pool.Memo, whose fills run on the
   workspace it lends them; the other task touches only its own
   arguments. *)
let graph =
  let b = Disco_graph.Graph.Builder.create 3 in
  Disco_graph.Graph.Builder.add_edge b 0 1 1.0;
  Disco_graph.Graph.Builder.add_edge b 1 2 1.0;
  Disco_graph.Graph.Builder.build b

let memo : (int, int array, Disco_graph.Dijkstra.workspace) Disco_util.Pool.Memo.t =
  Disco_util.Pool.Memo.create
    ~scratch:(fun () -> Disco_graph.Dijkstra.make_workspace graph)
    ()

let views pool xs =
  Disco_util.Pool.run pool xs (fun x ->
      Disco_util.Pool.Memo.find_or_add memo x (fun ws ->
          (Disco_graph.Dijkstra.k_closest ~ws graph x 2).Disco_graph.Dijkstra.order))

let sums pool xs = Disco_util.Pool.run pool xs (fun x -> x + 1)
