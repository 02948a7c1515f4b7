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

(* Each fill runs on the workspace the memo lends it and copies the
   truncated run into fresh arrays, so cached views are
   workspace-independent; the memo makes the demand fill safe from pool
   tasks (every route consults V(v)). *)
let compute t v ws =
  (* k_closest includes the source; ask for one more and drop it. *)
  let run = Dijkstra.k_closest ~ws t.graph v (t.k + 1) in
  let total = Array.length run.order in
  let size = max 0 (total - 1) in
  let members = Array.make size 0 in
  let dists = Array.make size 0.0 in
  let parents = Array.make size 0 in
  let j = ref 0 in
  let radius = ref 0.0 in
  for i = 0 to total - 1 do
    let w = run.order.(i) in
    if w <> v then begin
      members.(!j) <- w;
      dists.(!j) <- run.tdist.(i);
      parents.(!j) <- run.tparent.(i);
      if run.tdist.(i) > !radius then radius := run.tdist.(i);
      incr j
    end
  done;
  (* Sort the three parallel arrays by member id for binary search. *)
  let idx = Array.init size Fun.id in
  Array.sort (fun a b -> Int.compare members.(a) members.(b)) idx;
  {
    members = Array.map (fun i -> members.(i)) idx;
    dists = Array.map (fun i -> dists.(i)) idx;
    parents = Array.map (fun i -> parents.(i)) idx;
    radius = !radius;
  }

let view t v =
  Disco_util.Pool.Memo.find_or_add t.cache v (fun ws -> compute t v ws)

let find_index vw w =
  let lo = ref 0 and hi = ref (Array.length vw.members - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Int.compare vw.members.(mid) w in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let mem t v w = find_index (view t v) w <> None

let dist t v w =
  let vw = view t v in
  Option.map (fun i -> vw.dists.(i)) (find_index vw w)

let path t v w =
  let vw = view t v in
  match find_index vw w with
  | None -> None
  | Some i ->
      (* Walk predecessors back to v; every intermediate is in V(v). *)
      let rec back u acc =
        if u = v then Some (v :: acc)
        else begin
          match find_index vw u with
          | None -> None (* corrupt view; cannot happen for a valid run *)
          | Some j -> back vw.parents.(j) (u :: acc)
        end
      in
      back vw.parents.(i) [ w ]

let first_hop_count t v =
  let vw = view t v in
  let count = ref 0 in
  Array.iter (fun p -> if p = v then incr count) vw.parents;
  !count

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
