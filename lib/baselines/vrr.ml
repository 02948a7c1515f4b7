module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Hash_space = Disco_hash.Hash_space
module Rng = Disco_util.Rng
module Core = Disco_core
module Packed = Core.Packed

(* Build-time staging only: converged entries are frozen into the 4-stride
   CSR below, which both the typed face and the compiled fast path read. *)
type entry = { ea : int; eb : int; next_a : int; next_b : int }

type t = {
  graph : Graph.t;
  vids : Hash_space.id array;
  entries : Packed.Csr.t;
      (* per node, (ea, eb, next_a, next_b) blocks laid out in install
         order; both faces scan blocks backward so the newest entry wins,
         matching the prepend-order lists the build routes over *)
  final_vsets : Packed.Csr.t;
  path_store : (int * int, int list) Hashtbl.t;
  mutable fallbacks : int;
}

let pair_key x y = if x < y then (x, y) else (y, x)

module Iset = Set.Make (Int)

(* Greedy VRR forwarding as the build routes setup requests:
   [next_toward u e] and [best_endpoint u bound] close over the staging
   indexes, the destination, and the joined-so-far filter. The converged
   data plane ([forward]) takes the same steps over the frozen CSR.

   The packet is always committed to the known endpoint whose virtual id is
   closest to the destination; it follows that endpoint's stored path hop
   by hop, and any node on the way may re-commit to a strictly closer
   endpoint. The strict-improvement rule ensures the endpoint sequence
   converges on the destination (VRR's progress argument); a TTL catches
   paths broken by the incremental join state. *)
let greedy_route_gen ~graph ~next_toward ~best_endpoint ~direct ~src ~dst =
  let n = Graph.n graph in
  (* [bound] is the virtual distance of the best endpoint ever committed;
     it only shrinks (monotone descent in id space, VRR's progress
     property), which rules out endpoint oscillation. *)
  let rec step u committed bound acc ttl =
    if u = dst then Some (List.rev (u :: acc))
    else if ttl = 0 then None
    else if direct u then Some (List.rev (dst :: u :: acc))
    else begin
      let committed =
        match committed with Some c when c = u -> None | c -> c
      in
      (* Strictly better endpoint than anything committed so far? *)
      let best, best_d = best_endpoint u bound in
      let target = match best with Some _ as b -> b | None -> committed in
      match target with
      | None -> None
      | Some e -> (
          match next_toward u e with
          | None -> None (* broken corridor *)
          | Some hop -> step hop (Some e) best_d (u :: acc) (ttl - 1))
    end
  in
  (* Int64.minus_one is 2^64 - 1 read as unsigned: no initial bound. *)
  step src None Int64.minus_one [] (8 * n)

(* The paper's vset size r = 4: r/2 ring successors and r/2
   predecessors. *)
let half_vset = 2

let bfs_join_order rng graph =
  let n = Graph.n graph in
  let start = Rng.int rng n in
  let order = Array.make n 0 and seen = Array.make n false in
  let q = Queue.create () in
  Queue.push start q;
  seen.(start) <- true;
  let idx = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order.(!idx) <- u;
    incr idx;
    Graph.iter_neighbors graph u (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.push v q
        end)
  done;
  assert (!idx = n);
  order

let build ~rng graph =
  let n = Graph.n graph in
  let vids = Array.map Hash_space.of_name (Core.Name.default_array n) in
  let tables = Array.make n [] in
  let path_store = Hashtbl.create (2 * n) in
  let fallbacks = ref 0 in
  let ws = Dijkstra.make_workspace graph in
  let joined = Array.make n false in
  (* The virtual ring order of all nodes is fixed by the vids; joining is
     membership, not insertion. Sort once, then a Fenwick tree over ring
     positions gives rank/select on the joined subset — each join is
     O(log n) where growing a sorted array by insertion was O(n). *)
  let full_ring = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Hash_space.compare_unsigned vids.(a) vids.(b) in
      if c <> 0 then c else Int.compare a b)
    full_ring;
  let ring_pos = Array.make n 0 in
  Array.iteri (fun i v -> ring_pos.(v) <- i) full_ring;
  let fen = Packed.Fenwick.create n in
  (* [x]'s vset within the joined subset of the ring: the [half_vset]
     joined successors and predecessors, via Fenwick rank/select around
     [x]'s fixed ring position ([x] itself may or may not have joined). *)
  let joined_ring_neighbors x =
    let total = Packed.Fenwick.total fen in
    if total = 0 then []
    else begin
      let start = Packed.Fenwick.prefix fen ring_pos.(x) mod total in
      let collect dir =
        let out = ref [] and i = ref start and seen = ref 0 and steps = ref 0 in
        if dir < 0 then i := (start + total - 1) mod total;
        while !seen < half_vset && !steps < total do
          let candidate = full_ring.(Packed.Fenwick.kth fen !i) in
          if candidate <> x then begin
            out := candidate :: !out;
            incr seen
          end;
          incr steps;
          i := (!i + dir + total) mod total
        done;
        !out
      in
      List.sort_uniq Int.compare (collect 1 @ collect (-1))
    end
  in
  let shortest_path src dst =
    let run = Dijkstra.sssp ~ws ~until:dst graph src in
    Dijkstra.path_of_parents ~parent:(fun u -> run.Dijkstra.parent.(u)) ~src ~dst
  in
  (* --- setup-routing indexes ------------------------------------------
     Routing a setup request over the staging lists costs O(entries at u)
     per hop, and heavy-tailed hubs accumulate Θ(n) entries — overall
     quadratic build, the wall between the old 16k-node ceiling and the
     million-node sweep.  Three indexes make the two per-hop queries
     cheap while giving the same answers as the list scans (up to ties
     between distinct endpoints at exactly equal ring distance, which
     need colliding 64-bit vid differences):

     - [by_end]: (node, endpoint) -> newest-first entries naming that
       endpoint, for [next_toward]'s corridor lookup;
     - [ep_set]: per node, the ring positions of its stored endpoints,
       for the virtually-closest-endpoint query — in circular vid order
       the first usable candidate on each side of the destination
       realises that side's minimum arc, so probing two candidates finds
       the minimum ring distance;
     - [nbr_pos]: per node, its physical neighbors' ring positions,
       sorted once (the pset contributes candidates the same way). *)
  let by_end : (int, entry list) Hashtbl.t = Hashtbl.create (4 * n) in
  let ep_set = Array.make n Iset.empty in
  let nbr_pos =
    Array.init n (fun u ->
        let a =
          Array.init (Graph.degree graph u) (fun i ->
              ring_pos.(Graph.neighbor_at graph u i))
        in
        Array.sort Int.compare a;
        a)
  in
  let install path =
    match path with
    | [] | [ _ ] -> ()
    | first :: _ ->
        let arr = Array.of_list path in
        let len = Array.length arr in
        let last = arr.(len - 1) in
        for i = 0 to len - 1 do
          let z = arr.(i) in
          let next_a = if i = 0 then z else arr.(i - 1) in
          let next_b = if i = len - 1 then z else arr.(i + 1) in
          let e = { ea = first; eb = last; next_a; next_b } in
          tables.(z) <- e :: tables.(z);
          let index_endpoint ep =
            let key = (z * n) + ep in
            Hashtbl.replace by_end key
              (e :: Option.value ~default:[] (Hashtbl.find_opt by_end key));
            ep_set.(z) <- Iset.add ring_pos.(ep) ep_set.(z)
          in
          index_endpoint first;
          if last <> first then index_endpoint last
        done
  in
  (* [excl] is the joining node, excluded from the candidate set while its
     own setup request is routed (it is virtually closest to its vset
     targets, so allowing it would pull the request straight back; in real
     VRR the request is routed by a proxy before the joiner holds any
     paths); -1 once everyone has joined. *)
  let next_toward_idx ~excl u e =
    if Graph.has_edge graph u e && joined.(e) && e <> excl then Some e
    else
      match Hashtbl.find_opt by_end ((u * n) + e) with
      | None -> None
      | Some entries ->
          List.find_map
            (fun en ->
              if en.ea = e && en.next_a <> u then Some en.next_a
              else if en.eb = e && en.next_b <> u then Some en.next_b
              else None)
            entries
  in
  let best_endpoint_idx ~excl u ~dst ~bound =
    let usable e = joined.(e) && e <> excl in
    let best = ref None and best_d = ref bound in
    let consider e =
      if e <> u && usable e then begin
        let d = Hash_space.ring_distance vids.(e) vids.(dst) in
        if Hash_space.compare_unsigned d !best_d < 0 then begin
          best := Some e;
          best_d := d
        end
      end
    in
    let pd = ring_pos.(dst) in
    (* Physical neighbors: first usable candidate on each side of [pd],
       walking the sorted ring positions circularly. *)
    let a = nbr_pos.(u) in
    let len = Array.length a in
    if len > 0 then begin
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < pd then lo := mid + 1 else hi := mid
      done;
      let walk start dir =
        let rec go i steps =
          if steps < len then begin
            let e = full_ring.(a.(i)) in
            if e <> u && usable e then consider e
            else go ((i + dir + len) mod len) (steps + 1)
          end
        in
        go start 0
      in
      walk (!lo mod len) 1;
      walk ((!lo + len - 1) mod len) (-1)
    end;
    (* Stored endpoints: same two probes over the ordered set.  Every
       stored endpoint has joined, so a probe skips at most [u] and
       [excl]; the cap cannot bind, but if it ever did the staging list
       scan restores the exact answer. *)
    let s = ep_set.(u) in
    if not (Iset.is_empty s) then begin
      let overflow = ref false in
      let probe dir =
        let rec go b steps =
          if steps > 8 then overflow := true
          else
            let found =
              if dir > 0 then
                match Iset.find_first_opt (fun p -> p >= b) s with
                | Some _ as r -> r
                | None -> Iset.min_elt_opt s
              else
                match Iset.find_last_opt (fun p -> p <= b) s with
                | Some _ as r -> r
                | None -> Iset.max_elt_opt s
            in
            match found with
            | None -> ()
            | Some p ->
                let e = full_ring.(p) in
                if e <> u && usable e then consider e
                else go (p + dir) (steps + 1)
        in
        go pd 0
      in
      probe 1;
      probe (-1);
      if !overflow then
        List.iter
          (fun en ->
            consider en.ea;
            consider en.eb)
          tables.(u)
    end;
    (!best, !best_d)
  in
  let greedy_route ~excl ~src ~dst =
    greedy_route_gen ~graph
      ~next_toward:(fun u e -> next_toward_idx ~excl u e)
      ~best_endpoint:(fun u bound -> best_endpoint_idx ~excl u ~dst ~bound)
      ~direct:(fun u -> Graph.has_edge graph u dst && joined.(dst) && dst <> excl)
      ~src ~dst
  in
  let establish x y =
    let key = pair_key x y in
    if not (Hashtbl.mem path_store key) then begin
      let path =
        match greedy_route ~excl:x ~src:x ~dst:y with
        | Some p -> p
        | None ->
            incr fallbacks;
            shortest_path x y
      in
      Hashtbl.replace path_store key path;
      install path
    end
  in
  let order = bfs_join_order rng graph in
  Array.iter
    (fun x ->
      let vset = joined_ring_neighbors x in
      joined.(x) <- true;
      Packed.Fenwick.add fen ring_pos.(x) 1;
      List.iter (fun y -> establish x y) vset)
    order;
  (* Converged vsets: with everyone joined, the Fenwick prefix is the
     ring position. Tear down stale paths. *)
  let final_vset_rows =
    Array.init n (fun x -> Array.of_list (joined_ring_neighbors x))
  in
  let final_pairs = Hashtbl.create (2 * n) in
  Array.iteri
    (fun x vs -> Array.iter (fun y -> Hashtbl.replace final_pairs (pair_key x y) ()) vs)
    final_vset_rows;
  (* Any final pair missing a path (cannot normally happen): set it up over
     the fully built state. *)
  Hashtbl.iter
    (fun (x, y) () ->
      if not (Hashtbl.mem path_store (x, y)) then begin
        let path =
          match greedy_route ~excl:(-1) ~src:x ~dst:y with
          | Some p -> p
          | None ->
              incr fallbacks;
              shortest_path x y
        in
        Hashtbl.replace path_store (x, y) path;
        install path
      end)
    final_pairs;
  (* Converged state keeps every path established during the joins: VRR's
     converged state "depends on the order of node joins" (§5.1) precisely
     because setup-time paths persist; this is also what concentrates state
     on early hub nodes (Fig 4/5). Freeze the staging lists into the one
     packed table both faces read; the lists are newest-first, so blocks
     are written back to front to recover install order. *)
  let entries =
    Packed.Csr.of_fn ~n
      ~row_len:(fun v -> 4 * List.length tables.(v))
      ~fill:(fun v data off ->
        let j = ref (off + (4 * List.length tables.(v)) - 4) in
        List.iter
          (fun e ->
            data.(!j) <- e.ea;
            data.(!j + 1) <- e.eb;
            data.(!j + 2) <- e.next_a;
            data.(!j + 3) <- e.next_b;
            j := !j - 4)
          tables.(v))
  in
  {
    graph;
    vids;
    entries;
    final_vsets = Packed.Csr.of_rows final_vset_rows;
    path_store;
    fallbacks = !fallbacks;
  }

(* The typed face's readers over the frozen CSR: same scan semantics as the
   staging-list helpers above, realised as backward 4-stride block scans
   (newest entry first). *)

let pk_next_toward t u e =
  if Graph.has_edge t.graph u e then Some e
  else begin
    let data = t.entries.Packed.Csr.data in
    let off = Packed.Csr.row_off t.entries u in
    let rec scan j =
      if j < off then None
      else if data.(j) = e && data.(j + 2) <> u then Some data.(j + 2)
      else if data.(j + 1) = e && data.(j + 3) <> u then Some data.(j + 3)
      else scan (j - 4)
    in
    scan (off + Packed.Csr.row_len t.entries u - 4)
  end

let pk_best_endpoint t u ~dst ~bound =
  let vd x = Hash_space.ring_distance t.vids.(x) t.vids.(dst) in
  let better a b = Hash_space.compare_unsigned a b < 0 in
  let best = ref None and best_d = ref bound in
  let consider endpoint =
    if endpoint <> u then begin
      let d = vd endpoint in
      if better d !best_d then begin
        best := Some endpoint;
        best_d := d
      end
    end
  in
  Graph.iter_neighbors t.graph u (fun v _ -> consider v);
  let data = t.entries.Packed.Csr.data in
  let off = Packed.Csr.row_off t.entries u in
  let j = ref (off + Packed.Csr.row_len t.entries u - 4) in
  while !j >= off do
    consider data.(!j);
    consider data.(!j + 1);
    j := !j - 4
  done;
  (!best, !best_d)

module D = Core.Dataplane

(* VRR's corridors can wander: the converged greedy walk is bounded by 8n
   decisions (matching the build's [greedy_route_gen] TTL). *)
let ttl_factor = 8

(* Per-hop greedy forwarding: exactly one [greedy_route_gen] step. The
   packet carries the committed endpoint ([anchor]) and the monotone bound
   on the best virtual distance ever committed ([vbound]); [Int64.minus_one]
   (max unsigned) is the no-bound sentinel, as in the build's routing. The
   8 [extra_bytes] are the destination's virtual id. *)
let forward t (h : D.header) ~at:u =
  let dst = h.D.dst in
  if u = dst then D.Deliver
  else if Graph.has_edge t.graph u dst then D.Forward dst
  else begin
    let committed = if h.D.anchor = u then -1 else h.D.anchor in
    let best, best_d =
      (* disco-lint: allow L7 endpoint scan recomputed per node from the carried bound is the VRR design *)
      pk_best_endpoint t u ~dst ~bound:h.D.vbound
    in
    let target =
      match best with
      | Some e -> Some e
      | None -> if committed >= 0 then Some committed else None
    in
    match target with
    | None -> D.Drop D.No_route
    | Some e -> (
        (* disco-lint: allow L7 corridor step recomputed per node is the VRR design *)
        match pk_next_toward t u e with
        | None -> D.Drop D.No_route (* broken corridor *)
        | Some hop ->
            if e = h.D.anchor && Int64.equal best_d h.D.vbound then
              D.Forward hop
            else
              (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
              D.Rewrite
                (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
                ({ h with D.anchor = e; vbound = best_d }, hop, D.Greedy_commit e))
  end

let packet_header (_ : t) ~src:_ ~dst =
  { (D.plain ~dst D.Greedy) with D.extra_bytes = 8 }

(* --- compiled fast path ---------------------------------------------------

   [forward] flattened for {!Dataplane.fast_walk}: virtual ids split into
   unsigned 32-bit halves ([fvhi]/[fvlo]); the entry table needs no
   flattening of its own any more — the fast path adopts the frozen CSR
   slabs ([feoff]/[fent]) directly, scanning 4-stride blocks backward
   exactly like the typed face, so the endpoint scan and the corridor
   lookup are array loads and the ring metric is borrow arithmetic on int
   halves — no Int64 ever boxes on the hop loop. Mirrors [forward]
   decision for decision, including the committed endpoint / monotone
   bound discipline. *)

type fast = {
  fg : Graph.t;
  fvhi : int array;
  fvlo : int array;
  feoff : int array; (* the frozen CSR's n+1 offsets, shared not copied *)
  fent : int array; (* the frozen CSR's 4-stride (ea, eb, na, nb) blocks *)
}

let compile t =
  let n = Graph.n t.graph in
  let fvhi = Array.make n 0 and fvlo = Array.make n 0 in
  Array.iteri
    (fun v id ->
      fvhi.(v) <- Int64.to_int (Int64.shift_right_logical id 32);
      fvlo.(v) <- Int64.to_int (Int64.logand id 0xFFFFFFFFL))
    t.vids;
  { fg = t.graph; fvhi; fvlo; feoff = t.entries.Packed.Csr.off;
    fent = t.entries.Packed.Csr.data }

let fast_prime (_ : fast) ~src:_ ~dst:_ = ()

(* [best_endpoint]'s consider: ring_distance vids.(e) vids.(dst) in
   unsigned halves (64-bit subtract with borrow, negate, unsigned min
   with the typed tie rule), then strict unsigned improvement over the
   best so far ([pis.(1)]=hi, [pis.(2)]=lo; candidate in [pis.(0)]). *)
let fast_consider f (pkt : D.packet) u e =
  if e <> u then begin
    let ahi = f.fvhi.(e) and alo = f.fvlo.(e) in
    let bhi = f.fvhi.(pkt.D.pdst) and blo = f.fvlo.(pkt.D.pdst) in
    let slo = (blo - alo) land 0xFFFFFFFF in
    let sbw = if blo < alo then 1 else 0 in
    let shi = (bhi - ahi - sbw) land 0xFFFFFFFF in
    let nlo = -slo land 0xFFFFFFFF in
    let nbw = if slo > 0 then 1 else 0 in
    let nhi = (-shi - nbw) land 0xFFFFFFFF in
    let take_s = shi < nhi || (shi = nhi && slo <= nlo) in
    let dhi = if take_s then shi else nhi in
    let dlo = if take_s then slo else nlo in
    if dhi < pkt.D.pis.(1) || (dhi = pkt.D.pis.(1) && dlo < pkt.D.pis.(2))
    then begin
      pkt.D.pis.(0) <- e;
      pkt.D.pis.(1) <- dhi;
      pkt.D.pis.(2) <- dlo
    end
  end

let rec fast_scan_nbrs f pkt u i deg =
  if i < deg then begin
    fast_consider f pkt u (Graph.neighbor_at f.fg u i);
    fast_scan_nbrs f pkt u (i + 1) deg
  end

(* Backward over [u]'s 4-stride blocks: newest entry first, ea arm before
   eb arm — the typed scan order exactly. *)
let rec fast_scan_entries f pkt u j lo =
  if j >= lo then begin
    fast_consider f pkt u f.fent.(j);
    fast_consider f pkt u f.fent.(j + 1);
    fast_scan_entries f pkt u (j - 4) lo
  end

(* [next_toward] over the frozen blocks: newest entry whose endpoint
   matches and whose stored next hop is not [u] (ea arm before eb arm);
   -1 when the corridor is broken. *)
let rec fast_next_entry f u e j lo =
  if j < lo then -1
  else if f.fent.(j) = e && f.fent.(j + 2) <> u then f.fent.(j + 2)
  else if f.fent.(j + 1) = e && f.fent.(j + 3) <> u then f.fent.(j + 3)
  else fast_next_entry f u e (j - 4) lo

let fast_step f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else if Graph.has_edge f.fg u dst then dst
  else begin
    let committed = if pkt.D.panchor = u then -1 else pkt.D.panchor in
    pkt.D.pis.(0) <- -1;
    pkt.D.pis.(1) <- pkt.D.pvb_hi;
    pkt.D.pis.(2) <- pkt.D.pvb_lo;
    fast_scan_nbrs f pkt u 0 (Graph.degree f.fg u);
    fast_scan_entries f pkt u (f.feoff.(u + 1) - 4) f.feoff.(u);
    let best = pkt.D.pis.(0) in
    let target = if best >= 0 then best else committed in
    if target < 0 then D.fast_no_route
    else begin
      let hop =
        if Graph.has_edge f.fg u target then target
        else fast_next_entry f u target (f.feoff.(u + 1) - 4) f.feoff.(u)
      in
      if hop < 0 then D.fast_no_route (* broken corridor *)
      else if
        target = pkt.D.panchor
        && pkt.D.pis.(1) = pkt.D.pvb_hi
        && pkt.D.pis.(2) = pkt.D.pvb_lo
      then hop
      else begin
        pkt.D.panchor <- target;
        pkt.D.pvb_hi <- pkt.D.pis.(1);
        pkt.D.pvb_lo <- pkt.D.pis.(2);
        hop
      end
    end
  end

let state_entries t =
  Array.init (Graph.n t.graph) (fun v ->
      (Packed.Csr.row_len t.entries v / 4) + Graph.degree t.graph v)

let state_bytes t v =
  (* Entry blocks are 4 words; the vset row, the pset (one word per
     physical neighbor) and the node's own vid are one word each. *)
  float_of_int
    (8
    * (Packed.Csr.row_len t.entries v
      + Packed.Csr.row_len t.final_vsets v
      + Graph.degree t.graph v + 1))

(* disco-lint: allow L10 test_vrr's "vset size", "vset = ring neighborhood" and "state entries floor" check the converged vsets through it *)
let vset t v = Packed.Csr.sub_row t.final_vsets v

(* disco-lint: allow L10 test_vrr's "no setup fallbacks" checks the greedy setup through it *)
let setup_fallbacks t = t.fallbacks

(* disco-lint: allow L10 test_vrr's "ring invariant" checks the path store forward routes on through it *)
let ring_distance_ok t =
  let ok = ref true in
  for x = 0 to Packed.Csr.rows t.final_vsets - 1 do
    Packed.Csr.iter_row t.final_vsets x (fun y ->
        if not (Hashtbl.mem t.path_store (pair_key x y)) then ok := false)
  done;
  !ok
