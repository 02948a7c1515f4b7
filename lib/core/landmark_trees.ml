module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Pool = Disco_util.Pool

(* Lazily-computed SSSP trees, one per root a route actually touches:
   landmarks for Disco, NDDisco and S4, routers for SEATTLE's link-state
   table, pivots for TZ. The memo is shared by every query handle of a
   router — it is what makes routes on converged state cheap — so it must
   tolerate concurrent fills from pool tasks: [Pool.Memo] serializes table
   access, and the SSSP itself is a deterministic function of the root, so
   a lost fill race converges on an equal tree. Each fill runs on a
   workspace the memo lends it, never on one another fill is using. *)

type t = {
  graph : Graph.t;
  cache : (int, Dijkstra.sssp, Dijkstra.workspace) Pool.Memo.t;
}

let create graph =
  let scratch () = Dijkstra.make_workspace graph in
  { graph; cache = Pool.Memo.create ~scratch () }

let tree t lm =
  Pool.Memo.find_or_add t.cache lm (fun ws -> Dijkstra.sssp ~ws t.graph lm)

let dist t ~lm v = (tree t lm).Dijkstra.dist.(v)

let path_from t ~lm v =
  let s = tree t lm in
  if s.Dijkstra.dist.(v) = infinity then
    invalid_arg "Landmark_trees.path_from: unreachable";
  Dijkstra.path_of_parents
    ~parent:(fun u -> s.Dijkstra.parent.(u))
    ~src:lm ~dst:v

let path_to t v ~lm = List.rev (path_from t ~lm v)
let parents t ~lm = (tree t lm).Dijkstra.parent

(* The compiled fast paths' view: one parent row per root, [||] until a
   flow's setup primes it, so the hop loop only ever reads rows. *)
let rows t = Array.make (Graph.n t.graph) [||]

let prime t rows root =
  if Array.length rows.(root) = 0 then rows.(root) <- parents t ~lm:root

let cached_count t = Pool.Memo.length t.cache
