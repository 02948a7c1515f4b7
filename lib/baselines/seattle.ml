module Graph = Disco_graph.Graph
module Landmark_trees = Disco_core.Landmark_trees
module Consistent_hash = Disco_hash.Consistent_hash
module Packed = Disco_core.Packed

type t = {
  graph : Graph.t;
  names : Disco_core.Name.t array;
  ring : Consistent_hash.t;
  resolver : int array; (* per destination *)
  directory : Packed.Csr.t;
      (* the resolver map inverted: row v = the destinations whose
         directory entry v stores, sorted ascending *)
  trees : Landmark_trees.t; (* the topology's SSSP memo: link-state trees *)
}

(* Invert [resolver] into a CSR by counting sort: row v lists v's
   directory share, and per-node state queries read a row length instead
   of rescanning all n resolver slots. *)
let invert_resolver n resolver =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun r -> off.(r + 1) <- off.(r + 1) + 1) resolver;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + off.(i + 1)
  done;
  let data = Array.make n 0 in
  let cursor = Array.sub off 0 n in
  Array.iteri
    (fun d r ->
      data.(cursor.(r)) <- d;
      cursor.(r) <- cursor.(r) + 1)
    resolver;
  Packed.Csr.of_parts ~off ~data

let build ~trees ~names =
  let graph = Landmark_trees.graph trees in
  let n = Graph.n graph in
  if Array.length names <> n then invalid_arg "Seattle.build: names size";
  let ring =
    Consistent_hash.create
      ~owners:(Array.init n Fun.id)
      ~owner_name:(fun v -> names.(v))
      ()
  in
  let resolver = Array.map (fun name -> Consistent_hash.owner_of_name ring name) names in
  {
    graph;
    names;
    ring;
    resolver;
    directory = invert_resolver n resolver;
    trees;
  }

let shortest t ~src ~dst = Landmark_trees.path_from t.trees ~lm:src dst

(* disco-lint: allow L10 test_bvr_seattle's "seattle first via resolver" computes the expected detour from it *)
let resolver_of t dst = t.resolver.(dst)

let state_entries t v = Graph.n t.graph - 1 + Packed.Csr.row_len t.directory v

let state_bytes t v =
  (* One word per link-state route, plus a (name hash, location) pair per
     directory-share entry. *)
  float_of_int ((8 * (Graph.n t.graph - 1)) + (16 * Packed.Csr.row_len t.directory v))

module D = Disco_core.Dataplane

let ttl_factor = 4

(* SEATTLE's data plane has no shortcutting: packets follow the exact
   label route the source's link-state table produced. A first packet
   steers to the resolver, which looks the destination up in its
   directory share and writes the onward route from its own table. While
   steering, the packet is addressed to the resolver — a node it rides
   through does not inspect the inner destination, so it only delivers in
   [Carry] (the resolver detour may pass through the destination). *)
let forward t (h : D.header) ~at:u =
  (* disco-lint: allow L7 the scrutinee pairs phase and labels: per-decision by design *)
  match (h.D.phase, h.D.labels) with
  | D.Carry, _ when u = h.D.dst -> D.Deliver
  (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
  | D.Carry, _ | D.Steer _, _ :: _ -> D.label_hop h
  | D.Steer _, [] ->
      (* At the resolver: its directory share holds the destination. *)
      (* disco-lint: allow L7 L9 the resolver writes the onward route from its table (one allocation at the waypoint); raises only on control-plane-impossible states *)
      D.carry_along h (shortest t ~src:u ~dst:h.D.dst) D.Address_rewrite
  | (D.Seek _ | D.Greedy | D.Fallback), _ ->
      (* disco-lint: allow L7 drop-path diagnostic, not per-hop steady state *)
      D.Drop (D.Protocol_error "seattle: foreign header phase")

(* --- compiled fast path ---------------------------------------------------

   The forward above, flattened for {!Dataplane.fast_walk}: link-state
   trees become parent arrays indexed by root ([ftrees], primed per flow),
   and the hop body is array indexing only.  Mirrors [forward] decision
   for decision — including the no-deliver-while-steering rule — which
   disco-check's fast≡typed differential enforces. *)

type fast = {
  fsea : t;
  ftrees : int array array; (* SSSP parent array per root; [||] = unprimed *)
}

let compile t = { fsea = t; ftrees = Landmark_trees.rows t.trees }

(* Force the trees the flow's decisions read: the source's (header
   encode) and the resolver's (the steer-leg rewrite). *)
let fast_prime f ~src ~dst =
  Landmark_trees.prime f.fsea.trees f.ftrees src;
  Landmark_trees.prime f.fsea.trees f.ftrees f.fsea.resolver.(dst)

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_carry then
    if u = pkt.D.pdst then D.fast_deliver else D.fast_label_hop pkt
  else if m = D.mode_steer || m = D.mode_steer_tried then
    if D.route_len pkt > 0 then D.route_next pkt
    else
      (* At the resolver: write the onward route from its own tree. *)
      let parents = f.ftrees.(u) in
      if Array.length parents = 0 then D.fast_protocol
      else if D.route_fill_down pkt parents u pkt.D.pdst >= 1 then
        D.fast_carry pkt
      else D.fast_no_route
  else D.fast_protocol

let later_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else D.carry_header ~dst (shortest t ~src ~dst)

let first_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else begin
    let r = t.resolver.(dst) in
    if r = src || r = dst then later_header t ~src ~dst
    else
      match shortest t ~src ~dst:r with
      | _ :: rest ->
          {
            (D.plain ~dst (D.Steer { tried_proxy = false })) with
            D.labels = rest;
            waypoint = r;
          }
      | [] -> later_header t ~src ~dst
  end
