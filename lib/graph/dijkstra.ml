module Heap = Disco_util.Heap

type workspace = {
  graph : Graph.t; (* the graph whose lightest edge [bound] holds *)
  dist : float array;
  par : int array;
  stamp : int array; (* which run last touched this slot *)
  settled : int array; (* which run settled this slot *)
  heap : int Heap.t;
  bound : float array; (* the [cap]/[reach_max]/[lightest] slots below *)
  mutable run : int;
  mutable to_reach : int; (* first reaches left before [cap] is fixed *)
}

(* Slots of [ws.bound]. A float array keeps their reads and writes
   unboxed inside the relaxation closure. *)
let cap = 0 (* B: no push beyond it can reach the k closest *)
let reach_max = 1 (* largest first-reach distance so far *)
let lightest = 2 (* lightest edge of [ws.graph]; infinity if edgeless *)

let make_workspace g =
  let n = Graph.n g in
  let w_min = ref infinity in
  for u = 0 to n - 1 do
    Graph.iter_neighbors g u (fun _ w -> if w < !w_min then w_min := w)
  done;
  {
    graph = g;
    dist = Array.make n infinity;
    par = Array.make n (-1);
    stamp = Array.make n (-1);
    settled = Array.make n (-1);
    heap = Heap.create ();
    bound = [| infinity; 0.0; !w_min |];
    run = 0;
    to_reach = 0;
  }

(* A new run resets every slot it reads: [stamp]/[settled] by the run
   number, the heap, and the bound. [bound_after = k > 0] fixes the cap
   at the k-th distinct node reached; 0 leaves the run unbounded. *)
let fresh_run ws g ~bound_after =
  if Graph.n ws.graph <> Graph.n g then
    invalid_arg "Dijkstra: workspace/graph mismatch";
  ws.run <- ws.run + 1;
  Heap.clear ws.heap;
  ws.to_reach <- bound_after;
  ws.bound.(cap) <- infinity;
  ws.bound.(reach_max) <- 0.0;
  ws.run

let get_ws ws g = match ws with Some w -> w | None -> make_workspace g

let touch ws run v d p =
  ws.dist.(v) <- d;
  ws.par.(v) <- p;
  ws.stamp.(v) <- run

let seen ws run v = ws.stamp.(v) = run
let is_settled ws run v = ws.settled.(v) = run

(* A node is reached for the first time, at [d]. Each of the first k
   distinct nodes reached is at most its first-reach distance from the
   source, so once k are reached the largest of those distances bounds
   the k-th settled one. *)
let[@inline] reach ws d =
  if ws.to_reach > 0 then begin
    if d > ws.bound.(reach_max) then ws.bound.(reach_max) <- d;
    ws.to_reach <- ws.to_reach - 1;
    if ws.to_reach = 0 then ws.bound.(cap) <- ws.bound.(reach_max)
  end

(* Core loop. [stop] inspects each newly settled node (with its settle
   index and distance) and returns true to halt. Pushes beyond the cap
   are skipped, and so is the scan of a node whose lightest possible
   push would be; ties at the cap are still pushed, so the entries that
   can settle, and their push order, are those of an unbounded run. *)
let run_dijkstra ws g sources ~bound_after ~stop =
  let run = fresh_run ws g ~bound_after in
  (* On a graph of the same size the workspace was not made for, 0 is
     the lightest edge weight still known to be a lower bound. *)
  let w_min = if ws.graph == g then ws.bound.(lightest) else 0.0 in
  Array.iter
    (fun s ->
      touch ws run s 0.0 (-1);
      reach ws 0.0;
      Heap.push ws.heap 0.0 s)
    sources;
  let settle_count = ref 0 in
  let halted = ref false in
  while (not !halted) && not (Heap.is_empty ws.heap) do
    match Heap.pop ws.heap with
    | None -> halted := true
    | Some (d, u) ->
        if not (is_settled ws run u) then begin
          ws.settled.(u) <- run;
          let idx = !settle_count in
          incr settle_count;
          if stop u idx d then halted := true
          else if d +. w_min <= ws.bound.(cap) then
            Graph.iter_neighbors g u (fun v w ->
                let nd = d +. w in
                if nd <= ws.bound.(cap) && not (is_settled ws run v) then
                  if not (seen ws run v) then begin
                    reach ws nd;
                    touch ws run v nd u;
                    Heap.push ws.heap nd v
                  end
                  else if nd < ws.dist.(v) then begin
                    touch ws run v nd u;
                    Heap.push ws.heap nd v
                  end)
        end
  done;
  run

type sssp = { dist : float array; parent : int array }

let sssp ?ws ?until g src =
  let ws = get_ws ws g in
  let stop =
    match until with
    | None -> fun _ _ _ -> false
    | Some t -> fun u _ _ -> u = t
  in
  let run = run_dijkstra ws g [| src |] ~bound_after:0 ~stop in
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if is_settled ws run v then begin
      dist.(v) <- ws.dist.(v);
      parent.(v) <- ws.par.(v)
    end
  done;
  { dist; parent }

let distance ?ws g src dst =
  if src = dst then 0.0
  else begin
    let ws = get_ws ws g in
    let result = ref infinity in
    let stop u _ d =
      if u = dst then begin
        result := d;
        true
      end
      else false
    in
    ignore (run_dijkstra ws g [| src |] ~bound_after:0 ~stop : int);
    !result
  end

type truncated = {
  source : int;
  order : int array;
  tdist : float array;
  tparent : int array;
}

let collect_truncated ws g src ~bound_after ~stop =
  let order = ref [] and count = ref 0 in
  let stop' u idx d =
    if stop u idx d then true
    else begin
      order := u :: !order;
      incr count;
      false
    end
  in
  let run = run_dijkstra ws g [| src |] ~bound_after ~stop:stop' in
  let order = Array.of_list (List.rev !order) in
  let tdist = Array.map (fun v -> ws.dist.(v)) order in
  let tparent =
    Array.map (fun v -> if v = src then -1 else ws.par.(v)) order
  in
  ignore run;
  { source = src; order; tdist; tparent }

let k_closest ?ws g src k =
  let ws = get_ws ws g in
  let k = min k (Graph.n g) in
  collect_truncated ws g src ~bound_after:k ~stop:(fun _ idx _ -> idx >= k)

let within_radius ?ws g src r =
  let ws = get_ws ws g in
  collect_truncated ws g src ~bound_after:0 ~stop:(fun _ _ d -> d >= r)

type multi = { mdist : float array; mparent : int array; msource : int array }

let multi_source g sources =
  let ws = make_workspace g in
  let n = Graph.n g in
  let msource = Array.make n (-1) in
  (* Track the originating source through the forest: when a node settles,
     it inherits its parent's source label. *)
  let stop u _ _ =
    let p = ws.par.(u) in
    msource.(u) <- (if p = -1 then u else msource.(p));
    false
  in
  let run = run_dijkstra ws g sources ~bound_after:0 ~stop in
  let mdist = Array.make n infinity and mparent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if is_settled ws run v then begin
      mdist.(v) <- ws.dist.(v);
      mparent.(v) <- ws.par.(v)
    end
    else msource.(v) <- -1
  done;
  { mdist; mparent; msource }

let path_of_parents ~parent ~src ~dst =
  let rec walk v acc steps =
    if steps < 0 then invalid_arg "Dijkstra.path_of_parents: no path";
    if v = src then src :: acc else walk (parent v) (v :: acc) (steps - 1)
  in
  walk dst [] 1_000_000_000

let truncated_lookup t =
  let tbl = Hashtbl.create (2 * Array.length t.order) in
  Array.iteri
    (fun i v -> Hashtbl.replace tbl v (t.tdist.(i), t.tparent.(i)))
    t.order;
  fun v -> Hashtbl.find_opt tbl v

let path_length g path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> (
        match Graph.edge_weight g u v with
        | Some w -> go (acc +. w) rest
        | None -> invalid_arg "Dijkstra.path_length: not a path")
  in
  go 0.0 path
