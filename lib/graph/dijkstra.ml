module Heap = Disco_util.Heap

type workspace = {
  graph : Graph.t; (* the graph whose lightest edge [bound] holds *)
  dist : float array;
  par : int array;
  stamp : int array; (* which run last touched this slot *)
  settled : int array; (* which run settled this slot *)
  order : int array; (* the run's settled nodes, in settle order... *)
  mutable count : int; (* ...in its first [count] slots *)
  heap : int Heap.t;
  bound : float array; (* the [cap]/[reach_max]/[lightest] slots below *)
  mutable run : int;
  mutable to_reach : int; (* first reaches left before [cap] is fixed *)
}

(* Slots of [ws.bound]. A float array keeps their reads and writes
   unboxed inside the relaxation closure. *)
let cap = 0 (* B: no push at or beyond it can reach the k closest *)
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
    order = Array.make n 0;
    count = 0;
    heap = Heap.create 0;
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
  ws.count <- 0;
  Heap.clear ws.heap;
  ws.to_reach <- bound_after;
  ws.bound.(cap) <- infinity;
  ws.bound.(reach_max) <- 0.0;
  ws.run

let get_ws ws g = match ws with Some w -> w | None -> make_workspace g

let[@inline] touch ws run v d p =
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
   index, the number settled before it) and returns true to halt; every
   node it lets pass is appended to [ws.order]. A node's first pop carries its final distance, since
   every decrease pushes again, so the loop reads it from [ws.dist] and
   relaxes over the CSR arrays directly: a closure per neighbour would
   box each weight. Pushes at or beyond the cap B are skipped, and so is
   the scan of a node whose lightest possible push would be. A tie at B
   can be skipped too: a node first reached after B is fixed is pushed
   after the first push of each of the k nodes that fixed it, and those
   pushes are all at most B, so with the heap's ties broken by push order
   it never settles ahead of them. The first k settled nodes, their
   distances and parents are those of an unbounded run. *)
let run_dijkstra ws g sources ~bound_after ~stop =
  let run = fresh_run ws g ~bound_after in
  (* On a graph of the same size the workspace was not made for, 0 is
     the lightest edge weight still known to be a lower bound. *)
  let w_min = if ws.graph == g then ws.bound.(lightest) else 0.0 in
  let row, col, wgt = Graph.csr g in
  Array.iter
    (fun s ->
      touch ws run s 0.0 (-1);
      reach ws 0.0;
      Heap.push ws.heap 0.0 s)
    sources;
  let halted = ref false in
  while (not !halted) && not (Heap.is_empty ws.heap) do
    let u = Heap.pop_min ws.heap in
    if not (is_settled ws run u) then begin
      ws.settled.(u) <- run;
      if stop u ws.count then halted := true
      else begin
        ws.order.(ws.count) <- u;
        ws.count <- ws.count + 1;
        let d = ws.dist.(u) in
        if d +. w_min < ws.bound.(cap) then
          for i = row.(u) to row.(u + 1) - 1 do
            let v = col.(i) and nd = d +. wgt.(i) in
            if nd < ws.bound.(cap) && not (is_settled ws run v) then
              if not (seen ws run v) then begin
                reach ws nd;
                touch ws run v nd u;
                Heap.push ws.heap nd v
              end
              else if nd < ws.dist.(v) then begin
                touch ws run v nd u;
                Heap.push ws.heap nd v
              end
          done
      end
    end
  done;
  run

type sssp = { dist : float array; parent : int array }

let sssp ?ws ?until g src =
  let ws = get_ws ws g in
  let stop =
    match until with
    | None -> fun _ _ -> false
    | Some t -> fun u _ -> u = t
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
    let run = run_dijkstra ws g [| src |] ~bound_after:0 ~stop:(fun u _ -> u = dst) in
    if is_settled ws run dst then ws.dist.(dst) else infinity
  end

type truncated = {
  source : int;
  order : int array;
  tdist : float array;
  tparent : int array;
}

let collect_truncated ws g src ~bound_after ~stop =
  ignore (run_dijkstra ws g [| src |] ~bound_after ~stop : int);
  let count = ws.count in
  let order = Array.sub ws.order 0 count in
  let tdist = Array.create_float count and tparent = Array.make count (-1) in
  (* The source settles first and keeps the parent -1 it started with. *)
  for i = 0 to count - 1 do
    tdist.(i) <- ws.dist.(order.(i));
    tparent.(i) <- ws.par.(order.(i))
  done;
  { source = src; order; tdist; tparent }

let k_closest ?ws g src k =
  let ws = get_ws ws g in
  let k = min k (Graph.n g) in
  collect_truncated ws g src ~bound_after:k ~stop:(fun _ idx -> idx >= k)

let within_radius ?ws g src r =
  let ws = get_ws ws g in
  collect_truncated ws g src ~bound_after:0 ~stop:(fun u _ -> ws.dist.(u) >= r)

(* Bits needed to write [x >= 0]. *)
let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

(* One stable counting pass of [keys] into [into], by the [width]-bit
   digit at [shift]. *)
let counting_pass keys into ~shift ~width =
  let mask = (1 lsl width) - 1 in
  let start = Array.make (mask + 2) 0 in
  for i = 0 to Array.length keys - 1 do
    let b = ((keys.(i) lsr shift) land mask) + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to mask + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  for i = 0 to Array.length keys - 1 do
    let b = (keys.(i) lsr shift) land mask in
    into.(start.(b)) <- keys.(i);
    start.(b) <- start.(b) + 1
  done

let id_order run =
  let order = run.order in
  let count = Array.length order in
  (* Each key packs a node id above its settle index. The ids of a run
     are distinct, so two stable passes over the id's low and high
     halves sort the keys by id, and the low bits are then the settle
     indexes in id order. *)
  let max_id = ref 0 in
  for i = 0 to count - 1 do
    if order.(i) > !max_id then max_id := order.(i)
  done;
  let ibits = bit_width !max_id and sbits = bit_width count in
  let keys = Array.make count 0 and tmp = Array.make count 0 in
  for i = 0 to count - 1 do
    keys.(i) <- (order.(i) lsl sbits) lor i
  done;
  let lo = (ibits + 1) / 2 in
  counting_pass keys tmp ~shift:sbits ~width:lo;
  counting_pass tmp keys ~shift:(sbits + lo) ~width:(ibits - lo);
  let mask = (1 lsl sbits) - 1 in
  for i = 0 to count - 1 do
    keys.(i) <- keys.(i) land mask
  done;
  keys

type multi = { mdist : float array; mparent : int array; msource : int array }

let multi_source g sources =
  let ws = make_workspace g in
  let n = Graph.n g in
  let msource = Array.make n (-1) in
  (* Track the originating source through the forest: when a node settles,
     it inherits its parent's source label. *)
  let stop u _ =
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

let path_length g path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> (
        match Graph.edge_weight g u v with
        | Some w -> go (acc +. w) rest
        | None -> invalid_arg "Dijkstra.path_length: not a path")
  in
  go 0.0 path
