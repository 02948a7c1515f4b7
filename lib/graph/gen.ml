module Rng = Disco_util.Rng
module Union_find = Disco_util.Union_find

(* Stitch a possibly-disconnected builder into one component by linking a
   representative of each extra component to a node of the main one. *)
let connect_components b n rng weight_fn =
  let uf = Union_find.create n in
  (* Builder has no iteration API; track unions as edges are added instead.
     We rebuild connectivity by probing all pairs via the built graph. *)
  let g = Graph.Builder.build b in
  for u = 0 to n - 1 do
    Graph.iter_neighbors g u (fun v _ -> ignore (Union_find.union uf u v : bool))
  done;
  if Union_find.count uf > 1 then begin
    let reps = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let r = Union_find.find uf v in
      if not (Hashtbl.mem reps r) then Hashtbl.add reps r v
    done;
    let members = Hashtbl.fold (fun _ v acc -> v :: acc) reps [] in
    match members with
    | [] | [ _ ] -> ()
    | anchor :: rest ->
        List.iter
          (fun v ->
            let u =
              (* Attach to a random node of the anchor's component when
                 possible; the anchor itself is always valid. *)
              let cand = Rng.int rng n in
              if Union_find.same uf cand anchor && cand <> v then cand
              else anchor
            in
            Graph.Builder.add_edge b u v (weight_fn u v);
            ignore (Union_find.union uf u v : bool))
          rest
  end

let gnm ~rng ~n ~m =
  let b = Graph.Builder.create n in
  let added = ref 0 in
  let cap = n * (n - 1) / 2 in
  let target = min m cap in
  while !added < target do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.Builder.has_edge b u v) then begin
      Graph.Builder.add_edge b u v 1.0;
      incr added
    end
  done;
  connect_components b n rng (fun _ _ -> 1.0);
  Graph.Builder.build b

let geometric ~rng ~n ~avg_degree =
  (* Expected degree = n * pi * r^2 (torus-free approximation), so pick
     r = sqrt (avg_degree / (pi * n)). Bucket the unit square into cells of
     side >= r so neighbor search is O(1) per node. *)
  let r = sqrt (avg_degree /. (Float.pi *. float_of_int n)) in
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let cells = max 1 (int_of_float (1.0 /. r)) in
  let cell_of x = min (cells - 1) (int_of_float (x *. float_of_int cells)) in
  let grid = Array.make (cells * cells) [] in
  for v = 0 to n - 1 do
    let c = (cell_of xs.(v) * cells) + cell_of ys.(v) in
    grid.(c) <- v :: grid.(c)
  done;
  let b = Graph.Builder.create n in
  let try_link u v =
    if u < v then begin
      let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
      let d = sqrt ((dx *. dx) +. (dy *. dy)) in
      if d <= r && d > 0.0 then Graph.Builder.add_edge b u v d
    end
  in
  for cx = 0 to cells - 1 do
    for cy = 0 to cells - 1 do
      let here = grid.((cx * cells) + cy) in
      List.iter
        (fun u ->
          for dx = -1 to 1 do
            for dy = -1 to 1 do
              let nx = cx + dx and ny = cy + dy in
              if nx >= 0 && nx < cells && ny >= 0 && ny < cells then
                List.iter (fun v -> try_link u v) grid.((nx * cells) + ny)
            done
          done)
        here
    done
  done;
  let euclid u v =
    let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
    max 1e-9 (sqrt ((dx *. dx) +. (dy *. dy)))
  in
  connect_components b n rng euclid;
  Graph.Builder.build b

let ring ~n =
  let b = Graph.Builder.create n in
  for v = 0 to n - 1 do
    Graph.Builder.add_edge b v ((v + 1) mod n) 1.0
  done;
  Graph.Builder.build b

let grid ~rows ~cols =
  let b = Graph.Builder.create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.Builder.add_edge b (id r c) (id r (c + 1)) 1.0;
      if r + 1 < rows then Graph.Builder.add_edge b (id r c) (id (r + 1) c) 1.0
    done
  done;
  Graph.Builder.build b

let star_of_stars ~branch =
  let n = 1 + branch + (branch * branch) in
  let b = Graph.Builder.create n in
  for i = 0 to branch - 1 do
    let child = 1 + i in
    Graph.Builder.add_edge b 0 child 1.0;
    for j = 0 to branch - 1 do
      let grandchild = 1 + branch + (i * branch) + j in
      Graph.Builder.add_edge b child grandchild 2.0
    done
  done;
  Graph.Builder.build b

let power_law ~rng ~n ~attach =
  if n <= attach then invalid_arg "Gen.power_law: n too small";
  let b = Graph.Builder.create n in
  (* Repeated-endpoint list: picking a uniform element is degree-biased. *)
  let store = ref (Array.make (4 * n * attach) 0) in
  let len = ref 0 in
  let push v =
    if !len >= Array.length !store then begin
      let bigger = Array.make (2 * Array.length !store) 0 in
      Array.blit !store 0 bigger 0 !len;
      store := bigger
    end;
    !store.(!len) <- v;
    incr len
  in
  (* Seed clique over the first attach+1 nodes. *)
  for u = 0 to attach do
    for v = u + 1 to attach do
      Graph.Builder.add_edge b u v 1.0;
      push u;
      push v
    done
  done;
  for v = attach + 1 to n - 1 do
    let chosen = Hashtbl.create attach in
    let attempts = ref 0 in
    while Hashtbl.length chosen < attach && !attempts < 50 * attach do
      incr attempts;
      let u = !store.(Rng.int rng !len) in
      if u <> v && not (Hashtbl.mem chosen u) then Hashtbl.add chosen u ()
    done;
    Hashtbl.iter
      (fun u () ->
        Graph.Builder.add_edge b v u 1.0;
        push u;
        push v)
      chosen
  done;
  connect_components b n rng (fun _ _ -> 1.0);
  Graph.Builder.build b

(* GLP — generalized linear preference (Bu & Towsley, INFOCOM 2002).
   Attachment probability ∝ (d_v − β): the repeated-endpoint store makes a
   uniform draw ∝ d_v, and thinning by the accept probability 1 − β/d_v
   turns that into GLP's shifted preference without per-node weights. With
   probability [p] a step adds [m] links between existing nodes; otherwise
   it adds a new node with [m] links. The constants are the paper's fit to
   AS-graph degree laws; [m = 1] keeps the edge count linear in n, which
   is what lets the scaling sweep grow this to a million nodes. *)
let glp ~rng ~n () =
  if n < 2 then invalid_arg "Gen.glp: n < 2";
  let m = 1 and p = 0.4695 and beta = 0.6447 in
  let b = Graph.Builder.create n in
  let degree = Array.make n 0 in
  let store = ref (Array.make (max 16 (8 * m)) 0) in
  let len = ref 0 in
  let push v =
    if !len >= Array.length !store then begin
      let bigger = Array.make (2 * Array.length !store) 0 in
      Array.blit !store 0 bigger 0 !len;
      store := bigger
    end;
    !store.(!len) <- v;
    incr len
  in
  let add_edge u v =
    Graph.Builder.add_edge b u v 1.0;
    degree.(u) <- degree.(u) + 1;
    degree.(v) <- degree.(v) + 1;
    push u;
    push v
  in
  let draw () =
    (* Expected attempts <= 1/(1 − β); the cap only guards degenerate
       RNG streaks and falls back to plain degree bias. *)
    let rec go attempts =
      let u = !store.(Rng.int rng !len) in
      if attempts > 200 then u
      else if Rng.float rng 1.0 < 1.0 -. (beta /. float_of_int degree.(u))
      then u
      else go (attempts + 1)
    in
    go 0
  in
  let seed = min n (m + 1) in
  for v = 0 to seed - 2 do
    add_edge v (v + 1)
  done;
  let next = ref seed in
  while !next < n do
    if Rng.float rng 1.0 < p then
      (* m new links between existing nodes, both ends preferential. *)
      for _ = 1 to m do
        let u = draw () and v = draw () in
        if u <> v && not (Graph.Builder.has_edge b u v) then add_edge u v
      done
    else begin
      let v = !next in
      incr next;
      for _ = 1 to m do
        let u = draw () in
        if not (Graph.Builder.has_edge b u v) then add_edge u v
      done
    end
  done;
  connect_components b n rng (fun _ _ -> 1.0);
  Graph.Builder.build b

let internet_as ~rng ~n = power_law ~rng ~n ~attach:2

let internet_router ~rng ~n =
  let g0 = power_law ~rng ~n ~attach:3 in
  (* Add ~10% extra uniform edges for router-level meshing. *)
  let b = Graph.Builder.create n in
  List.iter (fun (u, v, w) -> Graph.Builder.add_edge b u v w) (Graph.edges g0);
  let extra = n / 10 in
  let added = ref 0 in
  while !added < extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.Builder.has_edge b u v) then begin
      Graph.Builder.add_edge b u v 1.0;
      incr added
    end
  done;
  Graph.Builder.build b

type kind = As_level | Router_level | Gnm | Geometric | Glp

let by_kind ~rng kind ~n =
  match kind with
  | As_level -> internet_as ~rng ~n
  | Router_level -> internet_router ~rng ~n
  | Gnm -> gnm ~rng ~n ~m:(4 * n)
  | Geometric -> geometric ~rng ~n ~avg_degree:8.0
  | Glp -> glp ~rng ~n ()

let kind_name = function
  | As_level -> "as-level"
  | Router_level -> "router-level"
  | Gnm -> "gnm"
  | Geometric -> "geometric"
  | Glp -> "glp"

let all_kinds = [ As_level; Router_level; Gnm; Geometric; Glp ]

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_name k) s) all_kinds
