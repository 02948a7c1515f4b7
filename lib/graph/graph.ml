type t = {
  n : int;
  m : int;
  row : int array; (* length n+1: CSR row offsets into col/wgt *)
  col : int array; (* length 2m: neighbor ids, sorted within each row *)
  wgt : float array; (* length 2m: edge weights, parallel to col *)
}

module Builder = struct
  type t = { nodes : int; edges : (int * int, float) Hashtbl.t }

  let create nodes =
    if nodes <= 0 then invalid_arg "Graph.Builder.create: need n > 0";
    { nodes; edges = Hashtbl.create (4 * nodes) }

  let key u v = if u < v then (u, v) else (v, u)

  let add_edge b u v w =
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    if u < 0 || v < 0 || u >= b.nodes || v >= b.nodes then
      invalid_arg "Graph.Builder.add_edge: node out of range";
    if not (w > 0.0) then invalid_arg "Graph.Builder.add_edge: weight <= 0";
    let k = key u v in
    match Hashtbl.find_opt b.edges k with
    | Some w0 -> if w < w0 then Hashtbl.replace b.edges k w
    | None -> Hashtbl.add b.edges k w

  let has_edge b u v = Hashtbl.mem b.edges (key u v)

  let build b =
    let n = b.nodes in
    let deg = Array.make n 0 in
    Hashtbl.iter
      (fun (u, v) _ ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      b.edges;
    let row = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      row.(i + 1) <- row.(i) + deg.(i)
    done;
    let total = row.(n) in
    let col = Array.make (max 1 total) 0 in
    let wgt = Array.make (max 1 total) 0.0 in
    let fill = Array.copy row in
    Hashtbl.iter
      (fun (u, v) w ->
        col.(fill.(u)) <- v;
        wgt.(fill.(u)) <- w;
        fill.(u) <- fill.(u) + 1;
        col.(fill.(v)) <- u;
        wgt.(fill.(v)) <- w;
        fill.(v) <- fill.(v) + 1)
      b.edges;
    (* Sort each row by neighbor id so forwarding labels are canonical. *)
    for u = 0 to n - 1 do
      let lo = row.(u) and hi = row.(u + 1) in
      let idx = Array.init (hi - lo) (fun i -> lo + i) in
      Array.sort (fun a b -> Int.compare col.(a) col.(b)) idx;
      let c = Array.map (fun i -> col.(i)) idx in
      let w = Array.map (fun i -> wgt.(i)) idx in
      Array.blit c 0 col lo (hi - lo);
      Array.blit w 0 wgt lo (hi - lo)
    done;
    { n; m = Hashtbl.length b.edges; row; col; wgt }
end

let n t = t.n
let m t = t.m
let degree t u = t.row.(u + 1) - t.row.(u)

let iter_neighbors t u f =
  for i = t.row.(u) to t.row.(u + 1) - 1 do
    f t.col.(i) t.wgt.(i)
  done

let csr t = (t.row, t.col, t.wgt)

let neighbors t u =
  List.init (degree t u) (fun i ->
      let j = t.row.(u) + i in
      (t.col.(j), t.wgt.(j)))

(* The fast-path variant of [nth_neighbor]: no bounds check, no weight,
   no tuple — the compiled walkers decode forwarding labels with this on
   every hop, so it must stay off the minor heap (lint L7). *)
let neighbor_at t u i = t.col.(t.row.(u) + i)

let nth_neighbor t u i =
  if i < 0 || i >= degree t u then invalid_arg "Graph.nth_neighbor";
  let j = t.row.(u) + i in
  (t.col.(j), t.wgt.(j))

(* Binary search within u's sorted row for neighbor v; -1 when absent.
   Allocation-free (a recursive loop, no refs, no option) so the hop-loop
   membership check [has_edge] stays off the minor heap (lint L7). *)
let rec slot_between t v lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let c = t.col.(mid) in
    if c = v then mid
    else if c < v then slot_between t v (mid + 1) hi
    else slot_between t v lo (mid - 1)

let slot_of t u v = slot_between t v t.row.(u) (t.row.(u + 1) - 1)

let has_edge t u v = slot_of t u v >= 0

let find_slot t u v =
  match slot_of t u v with -1 -> None | slot -> Some slot

let neighbor_rank t u v =
  Option.map (fun slot -> slot - t.row.(u)) (find_slot t u v)

let edge_weight t u v = Option.map (fun slot -> t.wgt.(slot)) (find_slot t u v)
let edge_index t u v = find_slot t u v

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = t.row.(u + 1) - 1 downto t.row.(u) do
      let v = t.col.(i) in
      if u < v then acc := (u, v, t.wgt.(i)) :: !acc
    done
  done;
  !acc

(* disco-lint: allow L10 test_gen's generator tests take it as the connectivity reference *)
let is_connected t =
  let seen = Array.make t.n false in
  let stack = ref [ 0 ] in
  seen.(0) <- true;
  let count = ref 1 in
  let rec loop () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        iter_neighbors t u (fun v _ ->
            if not seen.(v) then begin
              seen.(v) <- true;
              incr count;
              stack := v :: !stack
            end);
        loop ()
  in
  loop ();
  !count = t.n

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    if degree t u > !best then best := degree t u
  done;
  !best
