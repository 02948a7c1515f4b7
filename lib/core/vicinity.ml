module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra

type view = {
  members : int array;
  dists : float array;
  parents : int array;
  radius : float;
}

type t = {
  graph : Graph.t;
  k : int;
  cache : (int, view, Dijkstra.workspace) Disco_util.Pool.Memo.t;
  mutable slots : view array option;
      (* direct-index face over the same view records, for compiled plans *)
}

let create graph ~k =
  if k < 0 then invalid_arg "Vicinity.create: k < 0";
  let scratch () = Dijkstra.make_workspace graph in
  let cache = Disco_util.Pool.Memo.create ~size:256 ~scratch () in
  { graph; k; cache; slots = None }

let k t = t.k

(* [w]'s index in an id-sorted member row, or -1. *)
let find_index members w =
  let lo = ref 0 and hi = ref (Array.length members - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Int.compare members.(mid) w in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* Each fill runs on the workspace the memo lends it and copies the
   truncated run into fresh arrays, so cached views are
   workspace-independent; the memo makes the demand fill safe from pool
   tasks (every route consults V(v)). *)
let compute t v ws =
  (* k_closest includes the source; ask for one more and drop it. *)
  let run = Dijkstra.k_closest ~ws t.graph v (t.k + 1) in
  let size = max 0 (Array.length run.order - 1) in
  let members = Array.make size 0 in
  let dists = Array.create_float size in
  let parents = Array.make size 0 in
  let j = ref 0 in
  let radius = ref 0.0 in
  (* Copy the run in id order, so members are sorted for binary search. *)
  let by_id = Dijkstra.id_order run in
  for o = 0 to Array.length by_id - 1 do
    let i = by_id.(o) in
    let w = run.order.(i) in
    if w <> v then begin
      members.(!j) <- w;
      dists.(!j) <- run.tdist.(i);
      parents.(!j) <- run.tparent.(i);
      if run.tdist.(i) > !radius then radius := run.tdist.(i);
      incr j
    end
  done;
  (* Turn each parent id into its index in the row (-1 for the owner),
     so a path walks back with one load per label. *)
  for j = 0 to size - 1 do
    parents.(j) <- (if parents.(j) = v then -1 else find_index members parents.(j))
  done;
  { members; dists; parents; radius = !radius }

let view t v =
  Disco_util.Pool.Memo.find_or_add t.cache v (fun ws -> compute t v ws)

let mem t v w = find_index (view t v).members w >= 0

let path t v w =
  let vw = view t v in
  let i = find_index vw.members w in
  if i < 0 then None
  else begin
    (* Walk parent indexes back to the owner; every intermediate is in
       V(v). *)
    let rec back j acc =
      if j < 0 then Some (v :: acc) else back vw.parents.(j) (vw.members.(j) :: acc)
    in
    back vw.parents.(i) [ w ]
  end

let precompute_all t =
  for v = 0 to Graph.n t.graph - 1 do
    ignore (view t v : view)
  done

let cached_count t = Disco_util.Pool.Memo.length t.cache

(* The packed face: one flat array slot per node holding the same view
   record the memo serves, so a compiled plan indexes views directly
   (no mutex, no re-flattened CSR copy) while the typed face keeps its
   lazy fills. Forcing it computes every view once. *)
let slots t =
  match t.slots with
  | Some s -> s
  | None ->
      let s = Array.init (Graph.n t.graph) (fun v -> view t v) in
      t.slots <- Some s;
      s

let view_bytes vw = 8 * ((3 * Array.length vw.members) + 1)
