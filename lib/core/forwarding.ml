module Graph = Disco_graph.Graph
module Bits = Disco_util.Bits
module Hash_space = Disco_hash.Hash_space
module D = Dataplane

let ttl_factor = 4

let deliver_check (d : Disco.t) ~src ~dst =
  match Vicinity.path d.Disco.nd.Nddisco.vicinity dst src with
  | Some p when src <> dst -> Some (List.rev p)
  | _ -> None

(* Rewrite at a node that holds [dst]'s address: the route to the
   destination's landmark from the node's own landmark table, then the
   explicit label route. *)
let address_route (nd : Nddisco.t) u dst =
  let addr = Nddisco.address nd dst in
  let lm = addr.Address.landmark in
  let label_path =
    Address.decode nd.Nddisco.graph ~landmark:lm ~labels:addr.Address.labels
      ~hops:(Address.hops addr)
  in
  if u = lm then label_path
  else Landmark_trees.path_to nd.Nddisco.trees u ~lm @ List.tl label_path

(* The Carry machine, shared by Disco, NDDisco and every label-routing leg:
   to-destination shortcutting at each hop (the first node holding a direct
   route diverts along it — its route is a shortest path, so the remaining
   distance strictly decreases; no loops), else consume one label. *)
let carry_step (nd : Nddisco.t) (h : D.header) ~at:u =
  if u = h.D.dst then D.Deliver
  else
    match Nddisco.knows nd u h.D.dst with
    | Some (_ :: (_ :: _ as direct)) when direct <> h.D.labels ->
        D.carry_along h (u :: direct) D.Shortcut_divert
    | _ -> D.label_hop h

(* Seek: the packet carries only the flat name; the node classifies it
   exactly as the control plane's [Disco.classify_first] would from this
   node's view. One decision per hop: same-node transitions of the old
   multi-pass machine (Seek -> Carry at the proxy, say) compress into a
   single Rewrite. *)
let rec seek_step (d : Disco.t) (h : D.header) ~at:u ~tried_proxy =
  let nd = d.Disco.nd in
  let dst = h.D.dst in
  if u = dst then D.Deliver
  else
    match Nddisco.knows nd u dst with
    | Some (_ :: _ :: _ as p) -> D.carry_along h p D.Direct_route
    | _ ->
        if Groups.same_group d.Disco.groups u dst then
          D.carry_along h (address_route nd u dst) D.Group_store_hit
        else if not tried_proxy then begin
          match Disco.classify_first d ~src:u ~dst with
          | Disco.Via_group_member w -> (
              match Vicinity.path nd.Nddisco.vicinity u w with
              | Some (_ :: (next :: rest)) ->
                  D.Rewrite
                    ( {
                        h with
                        D.phase = D.Steer { tried_proxy = true };
                        labels = rest;
                        waypoint = w;
                      },
                      next,
                      D.To_group_proxy w )
              | Some _ ->
                  (* The proxy is this node itself; its store came up empty
                     (same_group above), so fall to resolution. *)
                  resolution_step d h ~at:u
              | None -> D.Drop D.No_route)
          | _ -> resolution_step d h ~at:u
        end
        else resolution_step d h ~at:u

and resolution_step (d : Disco.t) (h : D.header) ~at:u =
  let nd = d.Disco.nd in
  let dst = h.D.dst in
  let owner = Resolution.owner d.Disco.resolution nd.Nddisco.names.(dst) in
  if u = owner then
    D.carry_along h (address_route nd u dst) (D.Resolution_via owner)
  else
    match Landmark_trees.path_to nd.Nddisco.trees u ~lm:owner with
    | _ :: (next :: rest) ->
        D.Rewrite
          ( {
              h with
              D.phase = D.Steer { tried_proxy = true };
              labels = rest;
              waypoint = owner;
            },
            next,
            D.Resolution_via owner )
    | _ -> D.Drop D.No_route

(* Steer: riding a leg toward the waypoint while still carrying only the
   name. Mid-leg nodes holding a direct route divert (becoming an ordinary
   Carry); at the waypoint (labels exhausted) the packet is re-classified. *)
let steer_step (d : Disco.t) (h : D.header) ~at:u ~tried_proxy =
  let nd = d.Disco.nd in
  if u = h.D.dst then D.Deliver
  else
    match h.D.labels with
    | [] -> seek_step d { h with D.waypoint = -1 } ~at:u ~tried_proxy
    | _ :: _ -> (
        match Nddisco.knows nd u h.D.dst with
        | Some (_ :: _ :: _ as p) -> D.carry_along h p D.Shortcut_divert
        | _ -> D.label_hop h)

(* The step functions allocate the rewritten header each hop: Rewrite
   carries a fresh immutable header by contract, so the L7 waivers below
   are the design, not an accident.  Their raise chains all bottom out in
   Landmark_trees/Bits range checks on states the control plane cannot
   produce (L9). *)
let forward (d : Disco.t) (h : D.header) ~at =
  match h.D.phase with
  (* disco-lint: allow L7 L9 per-hop header rewrite is the Rewrite contract; raises only on control-plane-impossible states *)
  | D.Seek { tried_proxy } -> seek_step d h ~at ~tried_proxy
  (* disco-lint: allow L7 L9 per-hop header rewrite is the Rewrite contract; raises only on control-plane-impossible states *)
  | D.Steer { tried_proxy } -> steer_step d h ~at ~tried_proxy
  (* disco-lint: allow L7 L9 per-hop header rewrite is the Rewrite contract; raises only on control-plane-impossible states *)
  | D.Carry -> carry_step d.Disco.nd h ~at
  | D.Greedy | D.Fallback ->
      (* disco-lint: allow L7 drop-path diagnostic, not per-hop steady state *)
      D.Drop (D.Protocol_error "disco: foreign header phase")

let first_header (_ : Disco.t) ~src:_ ~dst =
  D.plain ~dst (D.Seek { tried_proxy = false })

let later_header (d : Disco.t) ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else
    (* The source now holds the address (and the handshake path when the
       destination sent one). *)
    match deliver_check d ~src ~dst with
    | Some exact -> D.carry_header ~dst exact
    | None -> (
        match address_route d.Disco.nd src dst with
        | _ :: _ as p -> D.carry_header ~dst p
        | [] -> first_header d ~src ~dst)

(* NDDisco's data plane: the pure Carry machine — the source already holds
   the destination's address, so first packets follow the raw route with
   per-hop to-destination shortcutting. *)
let forward_nd (nd : Nddisco.t) (h : D.header) ~at =
  match h.D.phase with
  (* disco-lint: allow L7 L9 per-hop header rewrite is the Rewrite contract; raises only on control-plane-impossible states *)
  | D.Carry -> carry_step nd h ~at
  | D.Seek _ | D.Steer _ | D.Greedy | D.Fallback ->
      (* disco-lint: allow L7 drop-path diagnostic, not per-hop steady state *)
      D.Drop (D.Protocol_error "nddisco: foreign header phase")

let first_header_nd (nd : Nddisco.t) ~src ~dst =
  D.carry_header ~dst (Nddisco.raw_route nd ~src ~dst)

let later_header_nd (nd : Nddisco.t) ~src ~dst =
  match Vicinity.path nd.Nddisco.vicinity dst src with
  | Some p when src <> dst -> D.carry_header ~dst (List.rev p)
  | _ -> first_header_nd nd ~src ~dst

(* ------------------------------------------------------------------ *)
(* Compiled fast path: reads the SAME packed state the typed steps
   consult — vicinity view records via their direct-index slots, address
   routes straight off Nddisco's CSR, the resolution owner from the
   Othello FIB — so compiling no longer re-flattens anything into private
   copies.  Landmark trees become parent rows primed per flow; name
   hashes split into unsigned 32-bit halves so the group tests never box
   an Int64; each vicinity row gets a second order, by name hash, for the
   group-proxy search; and the vicinity table is transposed, so a node
   asks "is dst in my view, and where" of dst's row, which stays cached
   for the whole packet, rather than of its own. *)

type slab = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type inverse = { ioff : int array; iu : slab; iidx : slab }

type fast = {
  fis_lm : bool array;
  ftrees : Landmark_trees.t;
  flm : int array array;  (* parent row per landmark; [||] = unprimed *)
  fviews : Vicinity.view array;  (* shared with the typed face *)
  fghi : int array;  (* name-hash top/bottom 32 bits ([||] for NDDisco) *)
  fglo : int array;
  fgbits : int array;  (* per-node group prefix width *)
  ffib : Packed.Othello.t option;  (* resolution owner FIB; None for NDDisco *)
  falm : int array;  (* address landmark per node (shared slab) *)
  faroute : Packed.Csr.t;  (* address node paths [lm; ...; v] (shared CSR) *)
  forder : int array;  (* node ids in hash order ([Groups.sorted_ids]) *)
  frank : int array;  (* each node's index in [forder] *)
  froff : int array;  (* V(v)'s hash-order row is [frows] from froff.(v) *)
  frows : slab;  (* V(v)'s members as hash ranks, ascending *)
  finv : inverse;  (* the vicinity table transposed *)
}

let int32_slab len = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len
let no_ranks = int32_slab 0

(* Two passes over the views: count each member's row length, then fill
   the rows visiting owners in ascending id order, so every row comes out
   ascending with no sort. *)
let transpose (views : Vicinity.view array) =
  let n = Array.length views in
  let ioff = Array.make (n + 1) 0 in
  Array.iter
    (fun vw -> Array.iter (fun w -> ioff.(w + 1) <- ioff.(w + 1) + 1) vw.Vicinity.members)
    views;
  for w = 1 to n do
    ioff.(w) <- ioff.(w) + ioff.(w - 1)
  done;
  let iu = int32_slab ioff.(n) and iidx = int32_slab ioff.(n) in
  let next = Array.sub ioff 0 n in
  Array.iteri
    (fun u vw ->
      Array.iteri
        (fun i w ->
          let s = next.(w) in
          iu.{s} <- Int32.of_int u;
          iidx.{s} <- Int32.of_int i;
          next.(w) <- s + 1)
        vw.Vicinity.members)
    views;
  { ioff; iu; iidx }

(* First index in [row.{i..stop-1}] whose entry is >= [r]. *)
let rec lower_bound (row : slab) r i stop =
  if i >= stop then i
  else begin
    let mid = (i + stop) / 2 in
    if Int32.to_int row.{mid} < r then lower_bound row r (mid + 1) stop
    else lower_bound row r i mid
  end

let inverse_find inv w u =
  let stop = inv.ioff.(w + 1) in
  let p = lower_bound inv.iu u inv.ioff.(w) stop in
  if p < stop && Int32.to_int inv.iu.{p} = u then Int32.to_int inv.iidx.{p} else -1

let compile_nd (nd : Nddisco.t) =
  let fviews = Vicinity.slots nd.Nddisco.vicinity in
  {
    fis_lm = nd.Nddisco.landmarks.Landmarks.is_landmark;
    ftrees = nd.Nddisco.trees;
    flm = Landmark_trees.rows nd.Nddisco.trees;
    fviews;
    fghi = [||];
    fglo = [||];
    fgbits = [||];
    ffib = None;
    falm = nd.Nddisco.addresses.Nddisco.alm;
    faroute = nd.Nddisco.addresses.Nddisco.aroute;
    forder = [||];
    frank = [||];
    froff = [||];
    frows = no_ranks;
    finv = transpose fviews;
  }

(* Every view's members as hash ranks, each row ascending, in one int32
   slab. Each row is radix-sorted in two digits of half the bits of n:
   both digits are counted while the ranks are gathered, then the low
   digit scatters into scratch and the high digit into the slab. A row
   of m members costs O(m + sqrt n), and the scratch is O(k + sqrt n). *)
let rank_rows (views : Vicinity.view array) (rank : int array) =
  let n = Array.length views in
  let off = Array.make (n + 1) 0 in
  let widest = ref 0 in
  for v = 0 to n - 1 do
    let m = Array.length views.(v).Vicinity.members in
    off.(v + 1) <- off.(v) + m;
    widest := max !widest m
  done;
  let rows = int32_slab off.(n) in
  let half = (Bits.width_for n + 1) / 2 in
  let mask = (1 lsl half) - 1 in
  let a = Array.make !widest 0 and b = Array.make !widest 0 in
  let lo = Array.make (mask + 2) 0 and hi = Array.make (mask + 2) 0 in
  for v = 0 to n - 1 do
    let members = views.(v).Vicinity.members in
    let m = Array.length members in
    Array.fill lo 0 (mask + 2) 0;
    Array.fill hi 0 (mask + 2) 0;
    for i = 0 to m - 1 do
      let r = rank.(members.(i)) in
      a.(i) <- r;
      let cl = (r land mask) + 1 and ch = (r lsr half) + 1 in
      lo.(cl) <- lo.(cl) + 1;
      hi.(ch) <- hi.(ch) + 1
    done;
    for c = 1 to mask + 1 do
      lo.(c) <- lo.(c) + lo.(c - 1);
      hi.(c) <- hi.(c) + hi.(c - 1)
    done;
    for i = 0 to m - 1 do
      let r = a.(i) in
      let c = r land mask in
      b.(lo.(c)) <- r;
      lo.(c) <- lo.(c) + 1
    done;
    for i = 0 to m - 1 do
      let r = b.(i) in
      let c = r lsr half in
      rows.{off.(v) + hi.(c)} <- Int32.of_int r;
      hi.(c) <- hi.(c) + 1
    done
  done;
  (off, rows)

let compile (d : Disco.t) =
  let nd = d.Disco.nd in
  let base = compile_nd nd in
  let n = Graph.n nd.Nddisco.graph in
  let fghi = Array.make n 0 in
  let fglo = Array.make n 0 in
  let fgbits = Array.make n 0 in
  for v = 0 to n - 1 do
    let hi, lo = Packed.split64 nd.Nddisco.hashes.(v) in
    fghi.(v) <- hi;
    fglo.(v) <- lo;
    fgbits.(v) <- Groups.bits_of d.Disco.groups v
  done;
  let forder = Groups.sorted_ids d.Disco.groups in
  let frank = Array.make n 0 in
  Array.iteri (fun r v -> frank.(v) <- r) forder;
  let froff, frows = rank_rows base.fviews frank in
  {
    base with
    fghi;
    fglo;
    fgbits;
    ffib = Some (Resolution.fib d.Disco.resolution);
    forder;
    frank;
    froff;
    frows;
  }

let fast_prime_nd f ~src:_ ~dst =
  if f.fis_lm.(dst) then Landmark_trees.prime f.ftrees f.flm dst

let fast_owner f dst =
  match f.ffib with
  | Some fib -> Packed.Othello.query fib ~hi:f.fghi.(dst) ~lo:f.fglo.(dst)
  | None -> -1

let fast_prime f ~src:_ ~dst =
  if f.fis_lm.(dst) then Landmark_trees.prime f.ftrees f.flm dst
  else begin
    Landmark_trees.prime f.ftrees f.flm f.falm.(dst);
    Landmark_trees.prime f.ftrees f.flm (fast_owner f dst)
  end

(* [w]'s index in V(v)'s sorted member row, or -1. *)
let rec vseg_search (mem : int array) w lo hi =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let m = mem.(mid) in
    if m = w then mid
    else if m < w then vseg_search mem w (mid + 1) hi
    else vseg_search mem w lo (mid - 1)
  end

(* Label count of the vicinity path to the member at index [j], with
   that member already counted in [acc]: one parent-index load per
   label. *)
let rec vchain_len (parents : int array) j acc =
  let p = parents.(j) in
  if p < 0 then acc else vchain_len parents p (acc + 1)

let rec vfill_back (pkt : D.packet) (vw : Vicinity.view) j i =
  pkt.D.proute.(i) <- vw.Vicinity.members.(j);
  if i > 0 then vfill_back pkt vw vw.Vicinity.parents.(j) (i - 1)

(* Load the labels of the vicinity path to the member at index [j] of
   [vw] into the route window; returns their count. *)
let vfill (pkt : D.packet) (vw : Vicinity.view) j =
  let c = vchain_len vw.Vicinity.parents j 1 in
  vfill_back pkt vw j (c - 1);
  pkt.D.proute_pos <- 0;
  pkt.D.proute_end <- c;
  c

(* The zero-alloc mirror of [Nddisco.knows] + [carry_along]: load the node's
   direct route to [dst] into the route window.  Returns the label count
   (>= 1, window loaded), 0 (no local route, window untouched), or -1
   where the typed path raises (broken or unprimed landmark tree). *)
let local_fill f pkt u dst =
  if f.fis_lm.(dst) then begin
    let parents = f.flm.(dst) in
    if Array.length parents = 0 then -1
    else begin
      let c = D.route_fill_up pkt parents u dst in
      if c < 1 then -1 else c
    end
  end
  else begin
    let j = inverse_find f.finv dst u in
    if j < 0 then 0 else vfill pkt f.fviews.(u) j
  end

(* [address_route] as a fill: the landmark-tree leg [u ~> l_dst] then the
   address labels.  Returns the label count or -1 (typed raise). *)
let addr_fill f (pkt : D.packet) u dst =
  let lm = f.falm.(dst) in
  let roff = f.faroute.Packed.Csr.off.(dst) in
  let rdata = f.faroute.Packed.Csr.data in
  let hops = f.faroute.Packed.Csr.off.(dst + 1) - roff - 1 in
  if u = lm then begin
    Array.blit rdata (roff + 1) pkt.D.proute 0 hops;
    pkt.D.proute_pos <- 0;
    pkt.D.proute_end <- hops;
    hops
  end
  else begin
    let parents = f.flm.(lm) in
    if Array.length parents = 0 then -1
    else begin
      let c = D.route_fill_up pkt parents u lm in
      if c < 0 then -1
      else begin
        Array.blit rdata (roff + 1) pkt.D.proute pkt.D.proute_end hops;
        pkt.D.proute_end <- pkt.D.proute_end + hops;
        c + hops
      end
    end
  end

(* Group tests over the hash halves (prefix widths are <= 30 < 32, so the
   prefix always lives in the top half). *)
let fd_prefix f v width = if width = 0 then 0 else f.fghi.(v) lsr (32 - width)

let fd_believes f v w =
  let b = f.fgbits.(v) in
  b = 0 || fd_prefix f w b = fd_prefix f v b

let fd_same_group f v w = fd_believes f v w && fd_believes f w v

(* [Hash_space.common_prefix_len] over the halves. *)
let fd_cpl hi lo a b =
  let xh = hi.(a) lxor hi.(b) in
  if xh <> 0 then Hash_space.clz xh else 32 + Hash_space.clz (lo.(a) lxor lo.(b))

(* Prefix length with [dst] of the member at row index [i], -1 off the row. *)
let side_cpl ~hi ~lo ~order (row : slab) ~off ~stop i dst =
  if i < off || i >= stop then -1
  else fd_cpl hi lo order.(Int32.to_int row.{i}) dst

(* Walk the row from [i] in direction [step] while members keep prefix
   length [len] with [dst]; [bj] is the best member's index in the
   id-sorted view, by least distance then least id. *)
let rec proxy_run ~hi ~lo ~order (row : slab) ~off ~stop ~members
    ~(dists : float array) dst len i step bj =
  if side_cpl ~hi ~lo ~order row ~off ~stop i dst < len then bj
  else begin
    let j = vseg_search members order.(Int32.to_int row.{i}) 0 (Array.length members - 1) in
    let bj =
      if bj < 0 || dists.(j) < dists.(bj) || (dists.(j) = dists.(bj) && j < bj) then j
      else bj
    in
    proxy_run ~hi ~lo ~order row ~off ~stop ~members ~dists dst len (i + step) step bj
  end

let hash_order_proxy ~hi ~lo ~order ~rank ~row ~off ~len ~members ~dists dst =
  let stop = off + len in
  let r = rank.(dst) in
  let p = lower_bound row r off stop in
  let next = if p < stop && Int32.to_int row.{p} = r then p + 1 else p in
  let best =
    max
      (side_cpl ~hi ~lo ~order row ~off ~stop (p - 1) dst)
      (side_cpl ~hi ~lo ~order row ~off ~stop next dst)
  in
  if best < 0 then -1
  else begin
    let bj =
      proxy_run ~hi ~lo ~order row ~off ~stop ~members ~dists dst best (p - 1) (-1) (-1)
    in
    proxy_run ~hi ~lo ~order row ~off ~stop ~members ~dists dst best next 1 bj
  end

(* The step machine, decision-for-decision the typed [seek_step] /
   [resolution_step] / [steer_step] / [carry_step].  The only intended
   divergence: a Carry divert whose direct route equals the remaining
   labels is taken here and consumed by the typed step — same next hop,
   same remaining labels, so the walks cannot differ. *)
let rec fd_seek f (pkt : D.packet) u tried =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then D.fast_carry pkt
    else if c < 0 then D.fast_protocol
    else if fd_same_group f u dst then fd_addr_carry f pkt u dst
    else if not tried then begin
      let vw = f.fviews.(u) in
      let j =
        hash_order_proxy ~hi:f.fghi ~lo:f.fglo ~order:f.forder ~rank:f.frank
          ~row:f.frows ~off:f.froff.(u)
          ~len:(f.froff.(u + 1) - f.froff.(u))
          ~members:vw.Vicinity.members ~dists:vw.Vicinity.dists dst
      in
      if j >= 0 && fd_same_group f vw.Vicinity.members.(j) dst then begin
        let _labels = vfill pkt vw j in
        pkt.D.pmode <- D.mode_steer_tried;
        pkt.D.pway <- vw.Vicinity.members.(j);
        D.route_next pkt
      end
      else fd_resolution f pkt u dst
    end
    else fd_resolution f pkt u dst
  end

and fd_addr_carry f (pkt : D.packet) u dst =
  let c = addr_fill f pkt u dst in
  if c < 0 then D.fast_protocol
  else if c = 0 then D.fast_no_route
  else D.fast_carry pkt

and fd_resolution f (pkt : D.packet) u dst =
  let owner = fast_owner f dst in
  if u = owner then fd_addr_carry f pkt u dst
  else begin
    let parents = f.flm.(owner) in
    if Array.length parents = 0 then D.fast_protocol
    else begin
      let c = D.route_fill_up pkt parents u owner in
      if c < 1 then D.fast_protocol
      else begin
        pkt.D.pmode <- D.mode_steer_tried;
        pkt.D.pway <- owner;
        D.route_next pkt
      end
    end
  end

and fd_steer f (pkt : D.packet) u tried =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else if D.route_len pkt = 0 then begin
    pkt.D.pway <- -1;
    fd_seek f pkt u tried
  end
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then D.fast_carry pkt
    else if c < 0 then D.fast_protocol
    else D.route_next pkt
  end

and fd_carry f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then D.route_next pkt
    else if c < 0 then D.fast_protocol
    else D.fast_label_hop pkt
  end

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_seek then fd_seek f pkt u false
  else if m = D.mode_seek_tried then fd_seek f pkt u true
  else if m = D.mode_steer then fd_steer f pkt u false
  else if m = D.mode_steer_tried then fd_steer f pkt u true
  else if m = D.mode_carry then fd_carry f pkt u
  else D.fast_protocol

let fast_step_nd f (pkt : D.packet) u =
  if pkt.D.pmode = D.mode_carry then fd_carry f pkt u else D.fast_protocol
