module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Core = Disco_core
module Landmarks = Core.Landmarks
module Landmark_trees = Core.Landmark_trees

type ball = { bm : int array; bd : float array; bp : int array }

(* S4 runs on NDDisco's converged landmark set, landmark trees and names,
   and on Disco's resolution ring: one landmark draw, one tree per root and
   one ring per topology. Only the cluster balls are S4's own state. *)
type t = {
  nd : Core.Nddisco.t;
  resolution : Core.Resolution.t;
  ball_cache : (int, ball, Dijkstra.workspace) Disco_util.Pool.Memo.t;
}

let of_nddisco (nd : Core.Nddisco.t) resolution =
  {
    nd;
    resolution;
    ball_cache =
      Disco_util.Pool.Memo.create ~size:256
        ~scratch:(fun () -> Dijkstra.make_workspace nd.graph)
        ();
  }

let radius t v = t.nd.landmarks.Landmarks.dist.(v)

(* The landmark that stores [dst]'s address in the resolution database. *)
let owner t dst = Core.Resolution.owner t.resolution t.nd.names.(dst)

(* Sorted-member binary search; -1 when [x] is outside the ball. *)
let rec ball_idx (members : int array) x lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let m = members.(mid) in
    if m = x then mid
    else if m < x then ball_idx members x (mid + 1) hi
    else ball_idx members x lo (mid - 1)

let ball_mem b x = ball_idx b.bm x 0 (Array.length b.bm - 1) >= 0

(* Ball of [target]: every node strictly closer to [target] than
   [target]'s landmark, packed as id-sorted members with parallel
   distances and predecessors in the shortest-path tree rooted at
   [target] — the one representation both the typed face and the
   compiled fast path read. *)
let ball t target =
  (* Filled lazily from route calls, possibly inside pool tasks: the memo
     serializes the table and lends each fill a workspace (results are
     copied out, so the cached ball is workspace-independent). *)
  Disco_util.Pool.Memo.find_or_add t.ball_cache target (fun ws ->
      let run = Dijkstra.within_radius ~ws t.nd.graph target (radius t target) in
      let idx = Dijkstra.id_order run in
      {
        bm = Array.map (fun i -> run.Dijkstra.order.(i)) idx;
        bd = Array.map (fun i -> run.Dijkstra.tdist.(i)) idx;
        bp = Array.map (fun i -> run.Dijkstra.tparent.(i)) idx;
      })

let in_cluster t ~node ~target = node <> target && ball_mem (ball t target) node

(* Shortest path node ~> target via the ball's forest: predecessors lie one
   step closer to the target, so the parent walk from [node] reads off the
   node ~> target path in forward order (the graph is undirected). *)
let cluster_path t ~node ~target =
  let b = ball t target in
  if not (ball_mem b node) then None
  else begin
    let rec walk u acc =
      if u = target then Some (List.rev (target :: acc))
      else begin
        let k = ball_idx b.bm u 0 (Array.length b.bm - 1) in
        if k < 0 then None else walk b.bp.(k) (u :: acc)
      end
    in
    walk node []
  end

let knows t u x =
  if u = x then Some [ u ]
  else if t.nd.landmarks.Landmarks.is_landmark.(x) then
    Some (Landmark_trees.path_to t.nd.trees u ~lm:x)
  else cluster_path t ~node:u ~target:x

let raw_via_landmark t ~src ~dst =
  let lm = t.nd.landmarks.Landmarks.nearest.(dst) in
  if lm = src then Landmark_trees.path_from t.nd.trees ~lm dst
  else begin
    let to_landmark = Landmark_trees.path_to t.nd.trees src ~lm in
    let onward = Landmark_trees.path_from t.nd.trees ~lm dst in
    to_landmark @ List.tl onward
  end

let route_later t ~src ~dst =
  if src = dst then [ src ]
  else if t.nd.landmarks.Landmarks.is_landmark.(dst) then
    Landmark_trees.path_to t.nd.trees src ~lm:dst
  else begin
    match cluster_path t ~node:src ~target:dst with
    | Some p -> p
    | None ->
        let raw = raw_via_landmark t ~src ~dst in
        Core.Shortcut.to_destination ~graph:t.nd.graph ~knows:(knows t) ~dst raw
  end

let route_first t ~src ~dst =
  if src = dst then [ src ]
  else begin
    let direct_known =
      t.nd.landmarks.Landmarks.is_landmark.(dst)
      || in_cluster t ~node:src ~target:dst
    in
    if direct_known then route_later t ~src ~dst
    else begin
      (* Resolution detour: the owner landmark of h(name_dst) holds the
         destination's landmark; continue from there. *)
      let owner = owner t dst in
      let raw =
        if owner = src then raw_via_landmark t ~src ~dst
        else begin
          let to_owner = Landmark_trees.path_to t.nd.trees src ~lm:owner in
          let onward =
            if t.nd.landmarks.Landmarks.nearest.(dst) = owner then
              Landmark_trees.path_from t.nd.trees ~lm:owner dst
            else raw_via_landmark t ~src:owner ~dst
          in
          to_owner @ List.tl onward
        end
      in
      Core.Shortcut.to_destination ~graph:t.nd.graph ~knows:(knows t) ~dst raw
    end
  end

module D = Core.Dataplane

let ttl_factor = 4

(* Per-hop S4 forwarding. Headers are set up by the source: direct label
   route when it already knows the destination ([Carry]), else a [Steer]
   leg toward the resolution owner (first packet) or the destination's
   landmark (later packets). Any node whose cluster (or landmark table)
   holds the destination diverts — the per-hop form of the oracle's
   to-destination shortcutting; every such route is a shortest path to the
   destination, so walk length equals the oracle's even when the diversion
   points differ. *)

(* Waypoint reached with no labels left: this node resolves the next leg.
   At the destination's landmark the explicit descent is written; at the
   resolution owner the packet is steered onward to that landmark. *)
let steer_arrival t (h : D.header) ~at:u =
  let dst = h.D.dst in
  let lm = t.nd.landmarks.Landmarks.nearest.(dst) in
  if u = lm then
    D.carry_along h (Landmark_trees.path_from t.nd.trees ~lm dst)
      D.Address_rewrite
  else
    match Landmark_trees.path_to t.nd.trees u ~lm with
    | _ :: (next :: rest) ->
        D.Rewrite
          ({ h with D.labels = rest; waypoint = lm }, next, D.Address_rewrite)
    | _ -> D.Drop D.No_route

let forward t (h : D.header) ~at:u =
  let dst = h.D.dst in
  if u = dst then D.Deliver
  else begin
    (* disco-lint: allow L7 per-decision closure for the shortcut check *)
    let divert () =
      (* disco-lint: allow L7 L9 the local-cluster lookup builds the candidate route (S4 shortcutting); raises only on control-plane-impossible states *)
      match knows t u dst with
      | Some (_ :: (_ :: _ as direct) as p) when direct <> h.D.labels ->
          (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
          Some (D.carry_along h p D.Shortcut_divert)
      | _ -> None
    in
    match h.D.phase with
    | D.Carry | D.Steer _ -> (
        match divert () with
        | Some d -> d
        | None -> (
            match h.D.labels with
            (* disco-lint: allow L7 fresh immutable header per hop is the Rewrite contract *)
            | _ :: _ -> D.label_hop h
            | [] -> (
                match h.D.phase with
                (* disco-lint: allow L7 L9 the resolver writes the onward route (one allocation at the steering waypoint); raises only on control-plane-impossible states *)
                | D.Steer _ -> steer_arrival t h ~at:u
                | _ -> D.Drop D.No_route)))
    | D.Seek _ | D.Greedy | D.Fallback ->
        (* disco-lint: allow L7 drop-path diagnostic, not per-hop steady state *)
        D.Drop (D.Protocol_error "s4: foreign header phase")
  end

let steer_header ~dst ~waypoint path =
  match path with
  | _ :: rest ->
      {
        (D.plain ~dst (D.Steer { tried_proxy = false })) with
        D.labels = rest;
        waypoint;
      }
  | [] -> D.plain ~dst D.Carry

let later_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else if t.nd.landmarks.Landmarks.is_landmark.(dst) then
    D.carry_header ~dst (Landmark_trees.path_to t.nd.trees src ~lm:dst)
  else begin
    match cluster_path t ~node:src ~target:dst with
    | Some p -> D.carry_header ~dst p
    | None ->
        let lm = t.nd.landmarks.Landmarks.nearest.(dst) in
        if lm = src then
          D.carry_header ~dst (Landmark_trees.path_from t.nd.trees ~lm dst)
        else
          steer_header ~dst ~waypoint:lm
            (Landmark_trees.path_to t.nd.trees src ~lm)
  end

let first_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else begin
    let direct_known =
      t.nd.landmarks.Landmarks.is_landmark.(dst)
      || in_cluster t ~node:src ~target:dst
    in
    if direct_known then later_header t ~src ~dst
    else begin
      let owner = owner t dst in
      if owner = src then later_header t ~src ~dst
      else
        steer_header ~dst ~waypoint:owner
          (Landmark_trees.path_to t.nd.trees src ~lm:owner)
    end
  end

(* --- compiled fast path ---------------------------------------------------

   [forward] flattened for {!Dataplane.fast_walk}: landmark trees become
   per-root parent arrays ([flm]), and each destination's packed ball is
   shared as-is with the typed face through the memo ([fball]), both
   primed per flow.  The per-hop shortcut check is then a binary search
   plus parent walks; mirrors [forward] decision for decision, with the
   typed path's Invalid_argument on an unreachable landmark tree mapped
   to the protocol verdict. *)

let empty_ball = { bm = [||]; bd = [||]; bp = [||] }

type fast = {
  fs4 : t;
  fis_lm : bool array;
  fnearest : int array;
  flm : int array array; (* per landmark root: tree parents; [||] unprimed *)
  fball : ball array; (* per destination, shared with the memo; unprimed = empty *)
}

let compile t =
  let n = Graph.n t.nd.graph in
  {
    fs4 = t;
    fis_lm = t.nd.landmarks.Landmarks.is_landmark;
    fnearest = t.nd.landmarks.Landmarks.nearest;
    flm = Landmark_trees.rows t.nd.trees;
    fball = Array.make n empty_ball;
  }

let fast_prime f ~src:_ ~dst =
  if f.fis_lm.(dst) then Landmark_trees.prime f.fs4.nd.trees f.flm dst
  else begin
    Landmark_trees.prime f.fs4.nd.trees f.flm f.fnearest.(dst);
    if Array.length f.fball.(dst).bm = 0 then
      (* every ball contains its target, so a primed slot is never empty *)
      f.fball.(dst) <- ball f.fs4 dst
  end

(* [cluster_path]'s parent walk, split into a read-only probe (a broken
   chain means no divert, and the live route must stay intact) and the
   fill that runs only once the probe succeeds. *)
let rec fast_ball_check members parents x dst =
  x = dst
  ||
  let k = ball_idx members x 0 (Array.length members - 1) in
  k >= 0 && fast_ball_check members parents parents.(k) dst

let rec fast_ball_fill (pkt : D.packet) members parents x i dst =
  if x = dst then begin
    pkt.D.proute_pos <- 0;
    pkt.D.proute_end <- i;
    i
  end
  else begin
    let k = ball_idx members x 0 (Array.length members - 1) in
    let p = parents.(k) in
    pkt.D.proute.(i) <- p;
    fast_ball_fill pkt members parents p (i + 1) dst
  end

(* Labels left: consume; none: [Carry] is out of route, [Steer] resolves
   at the waypoint (the destination's landmark writes the descent, any
   other arrival steers onward to that landmark). *)
let fast_arrival f (pkt : D.packet) u dst m =
  if D.route_len pkt > 0 then D.route_next pkt
  else if m = D.mode_carry then D.fast_no_route
  else begin
    let lm = f.fnearest.(dst) in
    let parents = f.flm.(lm) in
    if Array.length parents = 0 then D.fast_protocol
    else if u = lm then begin
      if D.route_fill_down pkt parents lm dst >= 1 then D.fast_carry pkt
      else D.fast_protocol (* unreachable: the typed path raises *)
    end
    else if D.route_chain_ok parents u lm then begin
      let _cnt = D.route_fill_up pkt parents u lm in
      pkt.D.pway <- lm;
      D.route_next pkt
    end
    else D.fast_protocol
  end

let fast_step f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let m = pkt.D.pmode in
    if m <> D.mode_carry && m <> D.mode_steer && m <> D.mode_steer_tried then
      D.fast_protocol
    else if f.fis_lm.(dst) then begin
      (* Landmark destination: every node diverts onto the tree route
         (when the remaining labels already equal it, the rewrite is the
         identity — same next hop, same tail — so always diverting
         matches the typed guard). *)
      let parents = f.flm.(dst) in
      if Array.length parents = 0 then D.fast_protocol
      else if D.route_chain_ok parents u dst then begin
        let _cnt = D.route_fill_up pkt parents u dst in
        D.fast_carry pkt
      end
      else D.fast_protocol (* unreachable: typed [knows] raises *)
    end
    else begin
      let b = f.fball.(dst) in
      let members = b.bm in
      let parents = b.bp in
      if
        ball_idx members u 0 (Array.length members - 1) >= 0
        && fast_ball_check members parents u dst
      then begin
        let _cnt = fast_ball_fill pkt members parents u 0 dst in
        D.fast_carry pkt
      end
      else fast_arrival f pkt u dst m
    end
  end

let cluster_sizes t =
  let n = Graph.n t.nd.graph in
  let counts = Array.make n 0 in
  let ws = Dijkstra.make_workspace t.nd.graph in
  for target = 0 to n - 1 do
    let run = Dijkstra.within_radius ~ws t.nd.graph target (radius t target) in
    Array.iter
      (fun u -> if u <> target then counts.(u) <- counts.(u) + 1)
      run.Dijkstra.order
  done;
  counts

let resolution_loads t =
  let loads = Array.make (Graph.n t.nd.graph) 0 in
  Array.iter
    (fun o -> loads.(o) <- loads.(o) + 1)
    (Core.Resolution.owners_by_node t.resolution);
  loads

let state_entries t ~cluster_sizes ~resolution_loads v =
  let landmark_entries = Landmarks.count t.nd.landmarks in
  let cluster = cluster_sizes.(v) in
  let labels = min (Graph.degree t.nd.graph v) (cluster + landmark_entries) in
  cluster + landmark_entries + labels + resolution_loads.(v)

let state_bytes t ~cluster_sizes ~resolution_loads v =
  let landmark_entries = Landmarks.count t.nd.landmarks in
  let cluster = cluster_sizes.(v) in
  let labels = min (Graph.degree t.nd.graph v) (cluster + landmark_entries) in
  (* Cluster and landmark routes are packed-ball rows: (member, distance,
     next hop) at 24 bytes; forwarding labels one word; resolution-share
     entries a (name hash, location) pair. *)
  float_of_int
    ((24 * (cluster + landmark_entries))
    + (8 * labels)
    + (16 * resolution_loads.(v)))
