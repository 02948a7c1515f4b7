module Hash_space = Disco_hash.Hash_space
module Graph = Disco_graph.Graph

type t = {
  nd : Nddisco.t;
  groups : Groups.t;
  overlay : Overlay.t;
  resolution : Resolution.t;
}

let of_nddisco ~rng ?groups nd =
  let groups = match groups with Some g -> g | None -> Groups.of_nddisco nd in
  {
    nd;
    groups;
    overlay = Overlay.build ~rng nd groups;
    resolution = Resolution.build nd;
  }

let build ?names ~rng graph =
  of_nddisco ~rng (Nddisco.build ?names ~rng graph)

type first_packet_case =
  | Trivial
  | Direct_landmark
  | Direct_vicinity
  | Known_address
  | Via_group_member of int
  | Resolution_fallback

(* The vicinity member most likely to hold dst's address: longest common
   hash prefix with h(dst); ties broken by distance (§4.4's "closest node
   with a long enough prefix match"). *)
let best_group_proxy t ~src ~dst =
  let nd = t.nd in
  let target = nd.hashes.(dst) in
  let vw = Vicinity.view nd.vicinity src in
  let best = ref (-1) and best_len = ref (-1) and best_dist = ref infinity in
  Array.iteri
    (fun i w ->
      if w <> dst then begin
        let len = Hash_space.common_prefix_len nd.hashes.(w) target in
        let d = vw.Vicinity.dists.(i) in
        if len > !best_len || (len = !best_len && d < !best_dist) then begin
          best := w;
          best_len := len;
          best_dist := d
        end
      end)
    vw.Vicinity.members;
  if !best < 0 then None else Some !best

let classify_first t ~src ~dst =
  let nd = t.nd in
  if src = dst then Trivial
  else if nd.landmarks.is_landmark.(dst) then Direct_landmark
  else if Vicinity.mem nd.vicinity src dst then Direct_vicinity
  else if Groups.same_group t.groups src dst then Known_address
  else begin
    match best_group_proxy t ~src ~dst with
    | Some w when Groups.same_group t.groups w dst -> Via_group_member w
    | Some _ | None -> Resolution_fallback
  end

(* Unshortcut first-packet route together with its case. *)
let raw_first t ~src ~dst =
  let nd = t.nd in
  match classify_first t ~src ~dst with
  | Trivial -> ([ src ], Trivial)
  | Direct_landmark -> (Nddisco.raw_route nd ~src ~dst, Direct_landmark)
  | Direct_vicinity -> (Nddisco.raw_route nd ~src ~dst, Direct_vicinity)
  | Known_address -> (Nddisco.raw_route nd ~src ~dst, Known_address)
  | Via_group_member w ->
      let to_proxy =
        match Vicinity.path nd.vicinity src w with
        | Some p -> p
        | None -> invalid_arg "Disco: proxy not in vicinity"
      in
      let onward = Nddisco.raw_route nd ~src:w ~dst in
      (to_proxy @ List.tl onward, Via_group_member w)
  | Resolution_fallback ->
      ( Resolution.resolve_then_route ~heuristic:Shortcut.No_shortcut t.resolution
          ~src ~dst,
        Resolution_fallback )

let route_first_case ?(heuristic = Shortcut.No_path_knowledge) t ~src ~dst =
  let fwd, case = raw_first t ~src ~dst in
  match fwd with
  | [ _ ] | [ _; _ ] -> (fwd, case)
  | _ ->
      let rev =
        if Shortcut.uses_reverse heuristic then
          Some (fst (raw_first t ~src:dst ~dst:src))
        else None
      in
      ( Shortcut.apply ~graph:t.nd.graph ~knows:(Nddisco.knows t.nd) heuristic
          ~fwd ~rev,
        case )

let route_first ?heuristic t ~src ~dst =
  fst (route_first_case ?heuristic t ~src ~dst)

let route_later ?heuristic t ~src ~dst = Nddisco.route_later ?heuristic t.nd ~src ~dst

type state_detail = {
  nd_detail : Nddisco.state_detail;
  group_entries : int;
  overlay_neighbors : int;
}

let state_entries t v =
  let resolution_entries = Resolution.entries_at t.resolution v in
  {
    nd_detail = Nddisco.state_entries ~resolution_entries t.nd v;
    group_entries = Groups.state_entries t.groups v;
    overlay_neighbors = Overlay.degree t.overlay v;
  }

let total_entries d =
  Nddisco.total_entries d.nd_detail + d.group_entries + d.overlay_neighbors

let state_bytes t ~name_bytes v =
  let d = state_entries t v in
  let nd = t.nd in
  (* Route entries (vicinity + landmark tables): name + 2 bytes of
     next-hop/label bookkeeping each; label mappings: 2 bytes each. *)
  let route_entries =
    d.nd_detail.Nddisco.vicinity_entries + d.nd_detail.Nddisco.landmark_entries
  in
  let route_bytes = float_of_int (route_entries * (name_bytes + 2)) in
  let label_bytes = float_of_int (2 * d.nd_detail.Nddisco.label_mappings) in
  (* Address mappings (sloppy group + resolution DB): name + full address. *)
  let addr_bytes_of w =
    float_of_int (name_bytes + Address.byte_size ~name_bytes (Nddisco.address nd w))
  in
  let group_bytes =
    Array.fold_left
      (fun acc w -> if w = v then acc else acc +. addr_bytes_of w)
      0.0 (Groups.members t.groups v)
  in
  let resolution_bytes =
    if d.nd_detail.Nddisco.resolution_entries = 0 then 0.0
    else begin
      let owners = Resolution.owners_by_node t.resolution in
      let acc = ref 0.0 in
      Array.iteri (fun w o -> if o = v then acc := !acc +. addr_bytes_of w) owners;
      !acc
    end
  in
  route_bytes +. label_bytes +. group_bytes +. resolution_bytes

(* Exact per-node state measured from the packed slabs (no name-size
   modelling): NDDisco's share (vicinity view + landmark tree slots + own
   address), the consistent-hash ring every node stores, an amortised
   share of the Othello owner FIB, this node's slice of the group index,
   the packed addresses of mutually-grouped members it stores, and — at
   landmarks — the resolution shard (a 16-byte slot for the name hash and
   its key, plus the stored address per owned name). *)
let packed_state_bytes t v =
  let nd = t.nd in
  let n = Nddisco.n nd in
  let addr w = float_of_int (8 + Nddisco.address_slab_bytes nd w) in
  let sorted = Groups.sorted_ids t.groups in
  let start, stop = Groups.member_range t.groups v in
  let group = ref 0.0 in
  for i = start to stop - 1 do
    let w = sorted.(i) in
    if w <> v && Groups.believes t.groups w v then group := !group +. addr w
  done;
  let resolution =
    if not nd.Nddisco.landmarks.Landmarks.is_landmark.(v) then 0.0
    else begin
      let owners = Resolution.owners_by_node t.resolution in
      let acc = ref 0.0 in
      Array.iteri (fun w o -> if o = v then acc := !acc +. 16.0 +. addr w) owners;
      !acc
    end
  in
  let fib_share =
    float_of_int (Packed.Othello.byte_size (Resolution.fib t.resolution))
    /. float_of_int n
  in
  Nddisco.packed_state_bytes nd v
  +. float_of_int (Resolution.ring_byte_size t.resolution)
  +. 24.0 (* this node's slice of the group index: hash, bits, sorted id *)
  +. !group +. resolution +. fib_share
