module Graph = Disco_graph.Graph
module Sim = Disco_sim.Sim
module Rng = Disco_util.Rng
module Hash_space = Disco_hash.Hash_space
module Consistent_hash = Disco_hash.Consistent_hash
module Params = Disco_core.Params
module Name = Disco_core.Name
module Dataplane = Disco_core.Dataplane
module Landmark_churn = Disco_core.Landmark_churn
module Admission = Disco_pathvector.Admission

(* Protocol timers, in simulated seconds. *)
let hello_interval = 5.0
let refresh_interval = 30.0 (* route re-announcement period *)
let addr_interval = 120.0 (* the paper's t (address refresh) *)
let params = Params.default

type route = {
  r_dist : float;
  r_path : int list; (* self .. dest *)
  r_is_lm : bool;
  mutable r_expires : float;
}

type addr_entry = {
  mutable a_addr : Msg.address;
  mutable a_expires : float;
  mutable a_forwarded : float; (* last time we propagated this entry *)
}

type node = {
  id : int;
  hash : Hash_space.id;
  rng : Rng.t;
  mutable active : bool;
  mutable n_est : int;
  mutable is_lm : bool;
  mutable lm_ref_n : int;
  mutable group_bits : int;
  table : route Admission.t; (* routes, counted toward the k closest *)
  addr_store : (int, addr_entry) Hashtbl.t; (* sloppy-group addresses *)
  res_store : (int, addr_entry) Hashtbl.t; (* resolution DB (landmarks) *)
  last_heard : (int, float) Hashtbl.t; (* neighbor liveness *)
  mutable fingers : int list;
}

type t = {
  graph : Graph.t;
  sim : Msg.t Sim.t;
  nodes : node array;
  ring : Consistent_hash.t; (* every node's resolution points (§4.3) *)
}

let now t = Sim.time t.sim
let messages_sent t = Sim.messages_sent t.sim
let is_active t v = t.nodes.(v).active
let is_landmark t v = t.nodes.(v).active && t.nodes.(v).is_lm

let landmark_count t =
  Array.fold_left (fun acc nd -> if nd.active && nd.is_lm then acc + 1 else acc) 0 t.nodes

let route_table_size t v =
  let nd = t.nodes.(v) in
  Hashtbl.length nd.table.routes + Hashtbl.length nd.addr_store + Hashtbl.length nd.res_store

let address_of t v =
  let nd = t.nodes.(v) in
  if not nd.active then None
  else if nd.is_lm then Some { Msg.lm = v; lm_path = [ v ] }
  else begin
    (* Closest landmark in the routing table; address route = reverse of
       the node's path to it. *)
    let best = ref None in
    Hashtbl.iter
      (fun dest r ->
        if r.r_is_lm then begin
          match !best with
          | Some (_, d) when d <= r.r_dist -> ()
          | _ -> best := Some (dest, r.r_dist)
        end)
      nd.table.routes;
    match !best with
    | None -> None
    | Some (lm, _) ->
        let r = Hashtbl.find nd.table.routes lm in
        Some { Msg.lm; lm_path = List.rev r.r_path }
  end

let neighbor_alive t nd nbr =
  t.nodes.(nbr).active
  &&
  match Hashtbl.find_opt nd.last_heard nbr with
  | Some heard -> now t -. heard <= 3.0 *. hello_interval
  | None -> false

(* --- route table maintenance ------------------------------------------- *)

let route_ttl = 2.5 *. refresh_interval
let addr_ttl = (2.0 *. addr_interval) +. 1.0

let announce_route t nd dest =
  match Hashtbl.find_opt nd.table.routes dest with
  | None -> ()
  | Some r ->
      Graph.iter_neighbors t.graph nd.id (fun nbr _ ->
          if t.nodes.(nbr).active then
            Sim.send t.sim ~src:nd.id ~dst:nbr
              (Msg.Route_ann
                 { dest; dest_is_landmark = r.r_is_lm; dist = r.r_dist; path = r.r_path }))

let withdraw_route t nd dest =
  Graph.iter_neighbors t.graph nd.id (fun nbr _ ->
      if t.nodes.(nbr).active then
        Sim.send t.sim ~src:nd.id ~dst:nbr (Msg.Route_withdraw { dest }))

let announce_self t nd =
  Graph.iter_neighbors t.graph nd.id (fun nbr _ ->
      if t.nodes.(nbr).active then
        Sim.send t.sim ~src:nd.id ~dst:nbr
          (Msg.Route_ann
             { dest = nd.id; dest_is_landmark = nd.is_lm; dist = 0.0; path = [ nd.id ] }))

(* §4.2 acceptance: landmarks always; otherwise one of the k closest
   currently advertised (evicting the farthest). *)
let consider_route t nd ~dest ~dest_is_lm ~dist ~path =
  if dest = nd.id || List.mem nd.id path then ()
  else begin
    let fresh = { r_dist = dist; r_path = nd.id :: path; r_is_lm = dest_is_lm;
                  r_expires = now t +. route_ttl }
    in
    let install () =
      Admission.replace nd.table dest fresh;
      announce_route t nd dest
    in
    match Hashtbl.find_opt nd.table.routes dest with
    | Some existing when existing.r_is_lm = dest_is_lm && dist >= existing.r_dist ->
        (* No improvement. An equal-cost announcement still refreshes the
           soft state AND replaces the stored path: the announcer is alive
           and currently standing behind that path, whereas the stored one
           may silently cross a dead node (with unit weights, equal-cost
           alternatives are everywhere and would otherwise keep stale
           paths alive forever). *)
        if dist = existing.r_dist then Admission.replace nd.table dest fresh
    | Some _ -> install () (* better route, or landmark-status change *)
    | None ->
        let k = Params.vicinity_size params ~n:nd.n_est in
        if dest_is_lm || Admission.admit nd.table ~k ~dist then install ()
  end

let purge_routes t nd =
  let dead = ref [] in
  Hashtbl.iter
    (fun dest r ->
      let first_hop = match r.r_path with _ :: h :: _ -> Some h | _ -> None in
      let hop_dead =
        match first_hop with Some h -> not (neighbor_alive t nd h) | None -> false
      in
      if r.r_expires < now t || hop_dead then dead := dest :: !dead)
    nd.table.routes;
  List.iter
    (fun dest ->
      Admission.remove nd.table dest;
      withdraw_route t nd dest)
    !dead

let purge_addrs t nd =
  let sweep store =
    let dead = ref [] in
    Hashtbl.iter (fun k e -> if e.a_expires < now t then dead := k :: !dead) store;
    List.iter (Hashtbl.remove store) !dead
  in
  sweep nd.addr_store;
  sweep nd.res_store

(* --- resolution and gossip --------------------------------------------- *)

(* The owner of [key] on the ring of the landmarks [nd] knows (itself
   when it is one, and its landmark routes): the first of their points on
   the shared ring from [key]'s successor on. *)
let resolution_owner t nd key =
  Consistent_hash.owner_among t.ring key ~member:(fun v ->
      if v = nd.id then nd.is_lm
      else match Hashtbl.find_opt nd.table.routes v with Some r -> r.r_is_lm | None -> false)

let next_hop_toward nd dest =
  match Hashtbl.find_opt nd.table.routes dest with
  | Some { r_path = _ :: hop :: _; _ } -> Some hop
  | _ -> None

(* Multi-hop unicast used for bootstrap replies: costs [hops] messages and
   [hops] time units without simulating each relay (the relays would not
   change any state). *)
let unicast t ~src ~dst ~hops msg =
  Sim.send_direct t.sim ~src ~dst ~latency:(float_of_int (max 1 hops)) msg;
  for _ = 2 to hops do
    (* account the relay hops; self-delivered hellos are inert *)
    Sim.send_direct t.sim ~src ~dst:src ~latency:0.0 Msg.Hello
  done

let same_group nd origin_hash =
  nd.group_bits = 0
  || Hash_space.prefix_bits origin_hash ~width:nd.group_bits
     = Hash_space.prefix_bits nd.hash ~width:nd.group_bits

(* Store/refresh an address and decide whether to propagate: always for
   new or changed addresses, and once per refresh period for keep-alives
   (so soft state survives across the whole group, not just one overlay
   hop, without re-flooding every message). *)
let store_addr t nd ~origin ~addr =
  match Hashtbl.find_opt nd.addr_store origin with
  | Some e ->
      let changed = not (Msg.equal_address e.a_addr addr) in
      e.a_addr <- addr;
      e.a_expires <- now t +. addr_ttl;
      if changed || now t -. e.a_forwarded >= 0.9 *. addr_interval then begin
        e.a_forwarded <- now t;
        true
      end
      else false
  | None ->
      Hashtbl.replace nd.addr_store origin
        { a_addr = addr; a_expires = now t +. addr_ttl; a_forwarded = now t };
      true

(* Overlay links: successor/predecessor among known group members plus the
   current fingers. *)
let overlay_links t nd =
  let members =
    Hashtbl.fold
      (fun origin _ acc -> if origin <> nd.id then origin :: acc else acc)
      nd.addr_store []
  in
  let by_hash =
    List.sort
      (fun a b -> Hash_space.compare_unsigned t.nodes.(a).hash t.nodes.(b).hash)
      members
  in
  let succ =
    List.find_opt
      (fun m -> Hash_space.compare_unsigned t.nodes.(m).hash nd.hash > 0)
      by_hash
  in
  let pred =
    List.fold_left
      (fun acc m ->
        if Hash_space.compare_unsigned t.nodes.(m).hash nd.hash < 0 then Some m else acc)
      None by_hash
  in
  let base = List.filter_map Fun.id [ succ; pred ] in
  List.sort_uniq Int.compare (base @ List.filter (fun f -> Hashtbl.mem nd.addr_store f) nd.fingers)

let gossip_addr t nd ~origin ~origin_hash ~addr ~exclude_direction =
  List.iter
    (fun link ->
      let link_hash = t.nodes.(link).hash in
      let dir = Hash_space.compare_unsigned link_hash nd.hash in
      let ok =
        match exclude_direction with
        | None -> true (* origin: seed both directions *)
        | Some d -> (d > 0 && dir > 0) || (d < 0 && dir < 0)
      in
      if ok then
        Sim.send_direct t.sim ~src:nd.id ~dst:link ~latency:1.0
          (Msg.Addr_gossip { origin; origin_hash; addr; sender_hash = nd.hash }))
    (overlay_links t nd)

let refresh_fingers nd =
  let members =
    Hashtbl.fold (fun o _ acc -> if o <> nd.id then o :: acc else acc) nd.addr_store []
  in
  match members with
  | [] -> nd.fingers <- []
  | _ ->
      let arr = Array.of_list members in
      nd.fingers <-
        List.init params.Params.fingers (fun _ ->
            arr.(Rng.int nd.rng (Array.length arr)))
        |> List.sort_uniq Int.compare

(* --- timers -------------------------------------------------------------- *)

let rec hello_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    Graph.iter_neighbors t.graph v (fun nbr _ ->
        if t.nodes.(nbr).active then Sim.send t.sim ~src:v ~dst:nbr Msg.Hello);
    Sim.schedule t.sim ~delay:hello_interval (hello_timer t v)
  end

let rec refresh_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    purge_routes t nd;
    purge_addrs t nd;
    announce_self t nd;
    Hashtbl.iter (fun dest _ -> announce_route t nd dest) nd.table.routes;
    Sim.schedule t.sim ~delay:refresh_interval (refresh_timer t v)
  end

let rec addr_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    (match address_of t v with
    | None -> ()
    | Some addr -> (
        (* Insert at the resolution owner... *)
        (match resolution_owner t nd nd.hash with
        | Some owner when owner <> v -> (
            match next_hop_toward nd owner with
            | Some hop ->
                Sim.send t.sim ~src:v ~dst:hop
                  (Msg.Resolve_insert { origin = v; addr; target_lm = owner })
            | None -> ())
        | Some _ ->
            (* We are the owner: store locally. *)
            Hashtbl.replace nd.res_store v
              { a_addr = addr; a_expires = now t +. addr_ttl; a_forwarded = now t }
        | None -> ());
        (* ...and gossip it through the sloppy group. *)
        refresh_fingers nd;
        ignore (store_addr t nd ~origin:v ~addr : bool);
        gossip_addr t nd ~origin:v ~origin_hash:nd.hash ~addr ~exclude_direction:None));
    Sim.schedule t.sim ~delay:addr_interval (addr_timer t v)
  end

(* --- message handling ---------------------------------------------------- *)

let handle t v ~src msg =
  let nd = t.nodes.(v) in
  if nd.active then begin
    if src <> v then Hashtbl.replace nd.last_heard src (now t);
    match msg with
    | Msg.Hello -> ()
    | Msg.Route_ann { dest; dest_is_landmark; dist; path } -> (
        match Graph.edge_weight t.graph v src with
        | Some w -> consider_route t nd ~dest ~dest_is_lm:dest_is_landmark ~dist:(dist +. w) ~path
        | None -> () (* overlay accounting message; no route content *))
    | Msg.Route_withdraw { dest } -> (
        (* Drop only routes standing on the withdrawer, and pass the
           poison on; independent paths survive. *)
        match Hashtbl.find_opt nd.table.routes dest with
        | Some { r_path = _ :: hop :: _; _ } when hop = src ->
            Admission.remove nd.table dest;
            withdraw_route t nd dest
        | _ -> ())
    | Msg.Resolve_insert { origin; addr; target_lm } ->
        if v = target_lm then begin
          Hashtbl.replace nd.res_store origin
            { a_addr = addr; a_expires = now t +. addr_ttl; a_forwarded = now t };
          (* Bootstrap reply: hand the inserter the closest stored hashes
             of its own group so it can join the dissemination overlay. *)
          let origin_hash = t.nodes.(origin).hash in
          let candidates =
            Hashtbl.fold
              (fun o e acc ->
                if o <> origin && same_group t.nodes.(origin) t.nodes.(o).hash then
                  (Hash_space.ring_distance origin_hash t.nodes.(o).hash, o, e.a_addr)
                  :: acc
                else acc)
              nd.res_store []
            (* Ring distance unsigned, then id: ids are unique, so the
               order is total and never reads the address. *)
            |> List.sort (fun (da, a, _) (db, b, _) ->
                   let c = Hash_space.compare_unsigned da db in
                   if c <> 0 then c else Int.compare a b)
          in
          let hops =
            match Hashtbl.find_opt nd.table.routes origin with
            | Some r -> List.length r.r_path - 1
            | None -> List.length addr.Msg.lm_path
          in
          List.iteri
            (fun i (_, o, a) ->
              if i < 4 then
                unicast t ~src:v ~dst:origin ~hops
                  (Msg.Addr_gossip
                     { origin = o; origin_hash = t.nodes.(o).hash; addr = a;
                       sender_hash = t.nodes.(origin).hash }))
            candidates
        end
        else begin
          match next_hop_toward nd target_lm with
          | Some hop ->
              Sim.send t.sim ~src:v ~dst:hop
                (Msg.Resolve_insert { origin; addr; target_lm })
          | None -> () (* no route yet; the next periodic insert retries *)
        end
    | Msg.Addr_gossip { origin; origin_hash; addr; sender_hash } ->
        if origin <> v && same_group nd origin_hash then begin
          let fresh = store_addr t nd ~origin ~addr in
          if fresh then begin
            let dir = Hash_space.compare_unsigned nd.hash sender_hash in
            let dir = if dir = 0 then 1 else dir in
            gossip_addr t nd ~origin ~origin_hash ~addr ~exclude_direction:(Some dir)
          end
        end
  end

(* --- lifecycle ----------------------------------------------------------- *)

let create ~rng ~graph ~n_estimate () =
  let n = Graph.n graph in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          hash = Name.hash (Name.default id);
          rng = Rng.split rng;
          active = false;
          n_est = n_estimate;
          is_lm = false;
          lm_ref_n = n_estimate;
          group_bits = Hash_space.group_size_bits ~n_estimate;
          table =
            Admission.create ~counted:(fun _ r -> not r.r_is_lm) ~dist:(fun r -> r.r_dist) 32;
          addr_store = Hashtbl.create 32;
          res_store = Hashtbl.create 8;
          last_heard = Hashtbl.create 8;
          fingers = [];
        })
  in
  (* Names never change, so neither do their ring points: one ring over
     every node serves each node's own landmark set. *)
  let ring =
    Consistent_hash.create ~replicas:params.Params.resolution_replicas
      ~owners:(Array.init n Fun.id) ~owner_name:Name.default ()
  in
  let t = { graph; sim = Sim.create ~graph (); nodes; ring } in
  Sim.set_handler t.sim (handle t);
  t

let activate t v =
  let nd = t.nodes.(v) in
  if not nd.active then begin
    nd.active <- true;
    nd.is_lm <- Rng.bernoulli nd.rng (Params.landmark_probability params ~n:nd.n_est);
    nd.lm_ref_n <- nd.n_est;
    Admission.reset nd.table;
    Hashtbl.reset nd.addr_store;
    Hashtbl.reset nd.res_store;
    (* Jittered timer starts keep the event pattern realistic. *)
    let jitter scale = Rng.float nd.rng scale in
    Sim.schedule t.sim ~delay:(jitter 1.0) (hello_timer t v);
    Sim.schedule t.sim ~delay:(jitter 1.0) (fun () ->
        announce_self t t.nodes.(v);
        refresh_timer t v ());
    Sim.schedule t.sim ~delay:(2.0 +. jitter hello_interval) (addr_timer t v)
  end

let activate_all t =
  for v = 0 to Graph.n t.graph - 1 do
    activate t v
  done

let deactivate t v = t.nodes.(v).active <- false

(* disco-lint: allow L10 test_dynamic's "fixed-seed trajectory is pinned" moves estimates through it, and ROADMAP item 6 drives demotions with it *)
let set_estimate t v ~n =
  let nd = t.nodes.(v) in
  nd.n_est <- n;
  nd.group_bits <- Hash_space.group_size_bits ~n_estimate:n;
  if nd.active && Landmark_churn.redraw_due ~ref_n:nd.lm_ref_n ~n then begin
    nd.lm_ref_n <- n;
    let status = Rng.bernoulli nd.rng (Params.landmark_probability params ~n) in
    if status <> nd.is_lm then begin
      nd.is_lm <- status;
      announce_self t nd
    end
  end

let run_until t time = Sim.run ~until:time t.sim

(* --- data plane ----------------------------------------------------------- *)

(* Carry: deliver, divert onto this node's own route when it differs from
   the labels left (to-destination shortcutting), else take the next
   label. *)
let carry nd (h : Dataplane.header) =
  if nd.id = h.dst then Dataplane.Deliver
  else
    match Hashtbl.find_opt nd.table.routes h.dst with
    | Some { r_path = _ :: direct as path; _ }
      when not (List.equal Int.equal direct h.labels) ->
        Dataplane.carry_along h path Dataplane.Shortcut_divert
    | _ -> Dataplane.label_hop h

(* Ride to the address's landmark on this node's own route, then its
   explicit route. *)
let carry_address nd h { Msg.lm; lm_path } why =
  let to_dst = List.tl lm_path in
  if nd.id = lm then Dataplane.carry_along h (nd.id :: to_dst) why
  else
    match Hashtbl.find_opt nd.table.routes lm with
    | Some { r_path; _ } -> Dataplane.carry_along h (r_path @ to_dst) why
    | None -> Dataplane.Drop No_route

(* Seek: a route to [dst], else a stored address, else head for the
   resolution owner this node computes from its own known landmarks. *)
let seek t nd (h : Dataplane.header) =
  let dst = h.dst in
  if nd.id = dst then Dataplane.Deliver
  else
    match Hashtbl.find_opt nd.table.routes dst with
    | Some { r_path; _ } -> Dataplane.carry_along h r_path Dataplane.Direct_route
    | None -> (
        match Hashtbl.find_opt nd.addr_store dst with
        | Some { a_addr; _ } -> carry_address nd h a_addr Dataplane.Group_store_hit
        | None -> (
            match resolution_owner t nd t.nodes.(dst).hash with
            | None -> Dataplane.Drop No_route
            | Some owner when owner = nd.id -> (
                match Hashtbl.find_opt nd.res_store dst with
                | Some { a_addr; _ } ->
                    carry_address nd h a_addr (Dataplane.Resolution_via owner)
                | None -> Dataplane.Drop No_route)
            | Some owner -> (
                match next_hop_toward nd owner with
                | Some hop ->
                    Dataplane.Rewrite
                      ( { h with phase = Steer { tried_proxy = false }; waypoint = owner },
                        hop,
                        Dataplane.Resolution_via owner )
                | None -> Dataplane.Drop No_route)))

(* Steer toward the owner in [waypoint], still carrying only the name; a
   node that holds a route or an address for [dst], or the owner itself,
   seeks afresh. *)
let steer t nd (h : Dataplane.header) =
  let owner = h.waypoint in
  if Hashtbl.mem nd.table.routes h.dst || Hashtbl.mem nd.addr_store h.dst || nd.id = owner
  then seek t nd h
  else
    match next_hop_toward nd owner with
    | Some hop -> Dataplane.Forward hop
    | None -> Dataplane.Drop No_route

let forward t (h : Dataplane.header) ~at =
  let nd = t.nodes.(at) in
  let decision =
    match h.phase with
    | Seek _ -> seek t nd h
    | Steer _ -> steer t nd h
    | Carry -> carry nd h
    | Greedy | Fallback -> Dataplane.Drop (Protocol_error "disco: foreign header phase")
  in
  match decision with
  | (Dataplane.Forward next | Rewrite (_, next, _)) when not t.nodes.(next).active ->
      Dataplane.Drop No_route
  | d -> d

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else if not (t.nodes.(src).active && t.nodes.(dst).active) then None
  else
    let trace =
      Dataplane.walk ~ttl:(4 * Graph.n t.graph) t.graph ~forward:(forward t) ~src
        (Dataplane.plain ~dst (Seek { tried_proxy = false }))
    in
    if trace.delivered then Some trace.path else None

let reachable_fraction t ~pairs =
  match pairs with
  | [] -> 1.0
  | _ ->
      let ok =
        List.fold_left
          (fun acc (s, d) -> if route t ~src:s ~dst:d <> None then acc + 1 else acc)
          0 pairs
      in
      float_of_int ok /. float_of_int (List.length pairs)
