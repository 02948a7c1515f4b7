module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Heap = Disco_util.Heap
module Rng = Disco_util.Rng
module Packed = Disco_core.Packed
module Landmark_trees = Disco_core.Landmark_trees

type t = {
  graph : Graph.t;
  k : int;
  level : int array; (* highest level each node belongs to *)
  pivot : int array array; (* pivot.(i).(v) = p_i(v); -1 if unreachable *)
  bunch : Packed.Csr.t; (* per node: sorted bunch member ids *)
  trees : Landmark_trees.t; (* the topology's SSSP memo: pivot trees *)
}

(* disco-lint: allow L10 test_tz_hierarchy's "levels nested" checks the sampled levels through it *)
let level_sizes t =
  let sizes = Array.make t.k 0 in
  Array.iter
    (fun l ->
      for i = 0 to l do
        sizes.(i) <- sizes.(i) + 1
      done)
    t.level;
  sizes

(* Bunch contributions of one sampled node [w] at level [i]: every node u
   with d(w, u) < d(u, A_{i+1}) learns a route to w (strict inequality,
   as in TZ). A pruned Dijkstra from w: a node only propagates the search
   if it satisfies the condition itself. [next_dist i u] is d(u, A_{i+1})
   with the sentinel d(u, A_k) = infinity; [staging] holds the mutable
   per-node bunches until {!build} freezes them into the CSR. *)
let scatter ~graph:g ~next_dist ~staging ~w ~i =
  let dist = Hashtbl.create 64 in
  let heap = Heap.create w in
  Heap.push heap 0.0 w;
  Hashtbl.replace dist w 0.0;
  let settled = Hashtbl.create 64 in
  while not (Heap.is_empty heap) do
    let d = Heap.min_prio heap in
    let u = Heap.pop_min heap in
    if not (Hashtbl.mem settled u) then begin
      Hashtbl.replace settled u ();
      if d < next_dist i u then begin
        if u <> w then Hashtbl.replace staging.(u) w ();
        Graph.iter_neighbors g u (fun v wgt ->
            let nd = d +. wgt in
            match Hashtbl.find_opt dist v with
            | Some old when old <= nd -> ()
            | _ ->
                Hashtbl.replace dist v nd;
                Heap.push heap nd v)
      end
    end
  done

let build ~rng ~k ~trees =
  if k < 1 then invalid_arg "Tz_hierarchy.build: k >= 1";
  let graph = Landmark_trees.graph trees in
  let n = Graph.n graph in
  let level = Array.make n 0 in
  let q = float_of_int n ** (-1.0 /. float_of_int k) in
  for v = 0 to n - 1 do
    let rec climb i =
      if i < k - 1 && Rng.bernoulli rng q then climb (i + 1) else i
    in
    level.(v) <- climb 0
  done;
  (* The top level must be nonempty or top-level pivots (and the stretch
     guarantee) disappear. *)
  if not (Array.exists (fun l -> l = k - 1) level) then
    level.(Rng.int rng n) <- k - 1;
  let members i =
    Array.of_list
      (List.filter (fun v -> level.(v) >= i) (List.init n Fun.id))
  in
  let pivot = Array.make k [||] and pivot_dist = Array.make k [||] in
  for i = 0 to k - 1 do
    let multi = Dijkstra.multi_source graph (members i) in
    pivot.(i) <- multi.Dijkstra.msource;
    pivot_dist.(i) <- multi.Dijkstra.mdist
  done;
  let staging = Array.init n (fun _ -> Hashtbl.create 16) in
  let next_dist i v =
    if i + 1 >= k then infinity else pivot_dist.(i + 1).(v)
  in
  for w = 0 to n - 1 do
    (* w contributes at each level it belongs to. *)
    for i = 0 to level.(w) do
      scatter ~graph ~next_dist ~staging ~w ~i
    done
  done;
  (* Freeze the staged bunches into id-sorted CSR rows, binary-searched
     from here on. *)
  let bunch =
    Packed.Csr.of_fn ~n
      ~row_len:(fun v -> Hashtbl.length staging.(v))
      ~fill:(fun v data off ->
        let j = ref off in
        Hashtbl.iter
          (fun w _ ->
            data.(!j) <- w;
            incr j)
          staging.(v);
        let row = Array.sub data off (!j - off) in
        Array.sort Int.compare row;
        Array.blit row 0 data off (Array.length row))
  in
  { graph; k; level; pivot; bunch; trees }

let state t v = Packed.Csr.row_len t.bunch v + t.k

(* Bytes of v's routing state: per bunch entry an 8-byte member id and an
   8-byte word for the member's next hop, which [forward] reads from the
   member's tree; per level a (pivot, next hop) pair likewise. *)
let state_bytes t v =
  float_of_int ((16 * Packed.Csr.row_len t.bunch v) + (16 * t.k))

let in_bunch t ~node ~target =
  node = target || Packed.Csr.find_sorted t.bunch node target >= 0

let stretch_bound t = float_of_int ((2 * t.k) - 1)

(* The TZ query: climb levels, alternating sides, until the current pivot
   of one endpoint lies in the other's bunch; the packet routes via that
   pivot. *)
let routing_pivot t ~src ~dst =
  let rec climb i x y w =
    if in_bunch t ~node:y ~target:w then Some w
    else begin
      let i = i + 1 in
      if i >= t.k then None
      else begin
        let x, y = (y, x) in
        climb i x y t.pivot.(i).(x)
      end
    end
  in
  climb 0 src dst src

module D = Disco_core.Dataplane

let ttl_factor = 4

(* Per-hop TZ forwarding: the header carries the routing pivot found by
   the source's climb; nodes forward up the pivot's shortest-path tree
   ([Steer] with no labels — each hop is a local parent lookup), and the
   pivot itself writes the explicit descent to the destination. While
   climbing, the packet is addressed to the pivot, so a node it rides
   through does not deliver even if it is the destination (the climb may
   cross the destination on the way up); only the pivot itself and the
   [Carry] descent deliver. *)
let forward t (h : D.header) ~at:u =
  let dst = h.D.dst in
  match h.D.phase with
    | D.Steer _ ->
        let w = h.D.waypoint in
        if w < 0 then D.Drop D.No_route (* no common pivot: disconnected *)
        else begin
          (* disco-lint: allow L7 L9 lazy pivot-tree lookup (memoized per pivot, amortized over packets); raises only on control-plane-impossible states *)
          let parents = Landmark_trees.parents t.trees ~lm:w in
          if u = w then begin
            if u = dst then D.Deliver
            else
              (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
              D.carry_along h
                (* disco-lint: allow L7 L9 the pivot writes the onward route (one allocation at the waypoint); raises only on control-plane-impossible states *)
                (Dijkstra.path_of_parents
                   (* disco-lint: allow L7 parent-accessor closure for the one-time route write at the pivot *)
                   ~parent:(fun x -> parents.(x))
                   ~src:w ~dst)
                D.Address_rewrite
          end
          else begin
            match parents.(u) with
            | -1 -> D.Drop D.No_route
            | p -> D.Forward p
          end
        end
    | D.Carry when u = dst -> D.Deliver
    (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
    | D.Carry -> D.label_hop h
    | D.Seek _ | D.Greedy | D.Fallback ->
        (* disco-lint: allow L7 drop-path diagnostic, not per-hop steady state *)
        D.Drop (D.Protocol_error "tz: foreign header phase")

let packet_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else begin
    let w = match routing_pivot t ~src ~dst with Some w -> w | None -> -1 in
    { (D.plain ~dst (D.Steer { tried_proxy = false })) with D.waypoint = w }
  end

(* --- compiled fast path ---------------------------------------------------

   [forward] flattened for {!Dataplane.fast_walk}: the carried pivot's
   SSSP becomes a parent array ([ftrees], primed per flow), climbing is
   one array load per hop, and the pivot's descent write is a
   {!Dataplane.route_fill_down}.  Mirrors [forward] decision for
   decision (fast≡typed differential). *)

type fast = {
  ftz : t;
  ftrees : int array array; (* SSSP parent array per pivot; [||] = unprimed *)
}

let compile t = { ftz = t; ftrees = Landmark_trees.rows t.trees }

let fast_prime f ~src ~dst =
  match routing_pivot f.ftz ~src ~dst with
  | Some w -> Landmark_trees.prime f.ftz.trees f.ftrees w
  | None -> ()

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_steer || m = D.mode_steer_tried then begin
    let w = pkt.D.pway in
    if w < 0 then D.fast_no_route (* no common pivot: disconnected *)
    else
      let parents = f.ftrees.(w) in
      if Array.length parents = 0 then D.fast_protocol
      else if u = w then
        if u = pkt.D.pdst then D.fast_deliver
        else if D.route_fill_down pkt parents w pkt.D.pdst >= 1 then
          D.fast_carry pkt
        else D.fast_no_route
      else
        let p = parents.(u) in
        if p < 0 then D.fast_no_route else p
  end
  else if m = D.mode_carry then
    if u = pkt.D.pdst then D.fast_deliver else D.fast_label_hop pkt
  else D.fast_protocol
