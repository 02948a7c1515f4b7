module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Pool = Disco_util.Pool

(* Lazily-computed SSSP trees, one per root a route actually touches:
   landmarks for Disco, NDDisco and S4, sources for path vector and
   SEATTLE's link-state table, pivots for TZ. One memo serves every scheme
   on a topology — it is what makes routes on converged state cheap — so it
   must tolerate concurrent fills from pool tasks: [Pool.Memo] serializes
   table access, and the SSSP itself is a deterministic function of the
   root, so a lost fill race converges on an equal tree. Each fill runs on
   a workspace the memo lends it, never on one another fill is using.

   A pinned root's tree (a landmark's) is read by flow after flow, so it is
   kept as long as the memo. Any other root's tree (a source's, a
   resolver's, a pivot's) lives in a bounded memo that drops the least
   recently used: a walk from every source (fig10) would otherwise keep
   n trees of n entries each. *)

type memo = (int, Dijkstra.sssp, Dijkstra.workspace) Pool.Memo.t

type t = {
  graph : Graph.t;
  pinned : bool array;
  kept : memo; (* pinned roots *)
  recent : memo; (* every other root *)
}

(* The unpinned trees hold at most [recent_entries] node entries together
   (8 MiB of distances and parents), so a graph of up to 724 nodes keeps
   every tree it is asked for and a larger one keeps the most recent. They
   hold at least [recent_min] trees whatever n is: room for the two trees
   a flow reads in turn (SEATTLE's source and resolver) on two domains at
   once. *)
let recent_entries = 1 lsl 19
let recent_min = 4

let create graph ~pinned =
  if Array.length pinned <> Graph.n graph then
    invalid_arg "Landmark_trees.create: pinned size";
  let scratch () = Dijkstra.make_workspace graph in
  {
    graph;
    pinned;
    kept = Pool.Memo.create ~scratch ();
    recent =
      Pool.Memo.bounded
        ~capacity:(max recent_min (recent_entries / max 1 (Graph.n graph)))
        ~scratch ();
  }

let graph t = t.graph

let tree t root =
  let memo = if t.pinned.(root) then t.kept else t.recent in
  Pool.Memo.find_or_add memo root (fun ws -> Dijkstra.sssp ~ws t.graph root)

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

let cached_count t = Pool.Memo.length t.kept
