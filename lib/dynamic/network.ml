module Graph = Disco_graph.Graph
module Sim = Disco_sim.Sim
module Rng = Disco_util.Rng
module Hash_space = Disco_hash.Hash_space
module Consistent_hash = Disco_hash.Consistent_hash
module Params = Disco_core.Params
module Name = Disco_core.Name

type config = {
  hello_interval : float;
  refresh_interval : float;
  addr_interval : float;
  params : Params.t;
}

let default_config =
  {
    hello_interval = 5.0;
    refresh_interval = 30.0;
    addr_interval = 120.0;
    params = Params.default;
  }

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
  name : string;
  hash : Hash_space.id;
  rng : Rng.t;
  mutable active : bool;
  mutable n_est : int;
  mutable is_lm : bool;
  mutable lm_ref_n : int;
  mutable group_bits : int;
  routes : (int, route) Hashtbl.t;
  addr_store : (int, addr_entry) Hashtbl.t; (* sloppy-group addresses *)
  res_store : (int, addr_entry) Hashtbl.t; (* resolution DB (landmarks) *)
  last_heard : (int, float) Hashtbl.t; (* neighbor liveness *)
  mutable fingers : int list;
}

type t = {
  graph : Graph.t;
  config : config;
  sim : Msg.t Sim.t;
  nodes : node array;
}

let now t = Sim.time t.sim
let messages_sent t = Sim.messages_sent t.sim
let is_active t v = t.nodes.(v).active
let is_landmark t v = t.nodes.(v).active && t.nodes.(v).is_lm

let landmark_count t =
  Array.fold_left (fun acc nd -> if nd.active && nd.is_lm then acc + 1 else acc) 0 t.nodes

let route_table_size t v =
  let nd = t.nodes.(v) in
  Hashtbl.length nd.routes + Hashtbl.length nd.addr_store + Hashtbl.length nd.res_store

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
      nd.routes;
    match !best with
    | None -> None
    | Some (lm, _) ->
        let r = Hashtbl.find nd.routes lm in
        Some { Msg.lm; lm_path = List.rev r.r_path }
  end

let vicinity_k nd config = Params.vicinity_size config.params ~n:nd.n_est

let neighbor_alive t nd nbr =
  t.nodes.(nbr).active
  &&
  match Hashtbl.find_opt nd.last_heard nbr with
  | Some heard -> now t -. heard <= 3.0 *. t.config.hello_interval
  | None -> false

(* --- route table maintenance ------------------------------------------- *)

let route_ttl t = 2.5 *. t.config.refresh_interval
let addr_ttl t = (2.0 *. t.config.addr_interval) +. 1.0

let announce_route t nd dest =
  match Hashtbl.find_opt nd.routes dest with
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
   currently advertised (evicting the worst). *)
let consider_route t nd ~dest ~dest_is_lm ~dist ~path =
  if dest = nd.id || List.mem nd.id path then ()
  else begin
    let fresh = { r_dist = dist; r_path = nd.id :: path; r_is_lm = dest_is_lm;
                  r_expires = now t +. route_ttl t }
    in
    let install () =
      Hashtbl.replace nd.routes dest fresh;
      announce_route t nd dest
    in
    match Hashtbl.find_opt nd.routes dest with
    | Some existing when existing.r_is_lm = dest_is_lm && dist >= existing.r_dist ->
        (* No improvement. An equal-cost announcement still refreshes the
           soft state AND replaces the stored path: the announcer is alive
           and currently standing behind that path, whereas the stored one
           may silently cross a dead node (with unit weights, equal-cost
           alternatives are everywhere and would otherwise keep stale
           paths alive forever). *)
        if dist = existing.r_dist then Hashtbl.replace nd.routes dest fresh
    | Some _ -> install () (* better route, or landmark-status change *)
    | None ->
        if dest_is_lm then install ()
        else begin
          let k = vicinity_k nd t.config in
          let count = ref 0 and worst = ref (-1) and worst_dist = ref neg_infinity in
          Hashtbl.iter
            (fun d r ->
              if (not r.r_is_lm) && d <> nd.id then begin
                incr count;
                if r.r_dist > !worst_dist then begin
                  worst_dist := r.r_dist;
                  worst := d
                end
              end)
            nd.routes;
          if !count < k then install ()
          else if dist < !worst_dist then begin
            Hashtbl.remove nd.routes !worst;
            install ()
          end
        end
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
    nd.routes;
  List.iter
    (fun dest ->
      Hashtbl.remove nd.routes dest;
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

let known_landmarks nd =
  Hashtbl.fold (fun dest r acc -> if r.r_is_lm then dest :: acc else acc) nd.routes
    (if nd.is_lm then [ nd.id ] else [])

let resolution_owner t nd key_name =
  match known_landmarks nd with
  | [] -> None
  | lms ->
      let owners = Array.of_list (List.sort compare lms) in
      let ring =
        Consistent_hash.create
          ~replicas:t.config.params.Params.resolution_replicas ~owners
          ~owner_name:(fun lm -> t.nodes.(lm).name) ()
      in
      Some (Consistent_hash.owner_of_name ring key_name)

let next_hop_toward nd dest =
  match Hashtbl.find_opt nd.routes dest with
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
      let changed = e.a_addr <> addr in
      e.a_addr <- addr;
      e.a_expires <- now t +. addr_ttl t;
      if changed || now t -. e.a_forwarded >= 0.9 *. t.config.addr_interval then begin
        e.a_forwarded <- now t;
        true
      end
      else false
  | None ->
      Hashtbl.replace nd.addr_store origin
        { a_addr = addr; a_expires = now t +. addr_ttl t; a_forwarded = now t };
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
  List.sort_uniq compare (base @ List.filter (fun f -> Hashtbl.mem nd.addr_store f) nd.fingers)

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

let refresh_fingers t nd =
  let members =
    Hashtbl.fold (fun o _ acc -> if o <> nd.id then o :: acc else acc) nd.addr_store []
  in
  match members with
  | [] -> nd.fingers <- []
  | _ ->
      let arr = Array.of_list members in
      nd.fingers <-
        List.init t.config.params.Params.fingers (fun _ ->
            arr.(Rng.int nd.rng (Array.length arr)))
        |> List.sort_uniq compare

(* --- timers -------------------------------------------------------------- *)

let rec hello_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    Graph.iter_neighbors t.graph v (fun nbr _ ->
        if t.nodes.(nbr).active then Sim.send t.sim ~src:v ~dst:nbr Msg.Hello);
    Sim.schedule t.sim ~delay:t.config.hello_interval (hello_timer t v)
  end

let rec refresh_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    purge_routes t nd;
    purge_addrs t nd;
    announce_self t nd;
    Hashtbl.iter (fun dest _ -> announce_route t nd dest) nd.routes;
    Sim.schedule t.sim ~delay:t.config.refresh_interval (refresh_timer t v)
  end

let rec addr_timer t v () =
  let nd = t.nodes.(v) in
  if nd.active then begin
    (match address_of t v with
    | None -> ()
    | Some addr -> (
        (* Insert at the resolution owner... *)
        (match resolution_owner t nd nd.name with
        | Some owner when owner <> v -> (
            match next_hop_toward nd owner with
            | Some hop ->
                Sim.send t.sim ~src:v ~dst:hop
                  (Msg.Resolve_insert
                     { origin = v; origin_name = nd.name; addr; target_lm = owner })
            | None -> ())
        | Some _ ->
            (* We are the owner: store locally. *)
            Hashtbl.replace nd.res_store v
              { a_addr = addr; a_expires = now t +. addr_ttl t; a_forwarded = now t }
        | None -> ());
        (* ...and gossip it through the sloppy group. *)
        refresh_fingers t nd;
        ignore (store_addr t nd ~origin:v ~addr : bool);
        gossip_addr t nd ~origin:v ~origin_hash:nd.hash ~addr ~exclude_direction:None));
    Sim.schedule t.sim ~delay:t.config.addr_interval (addr_timer t v)
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
        match Hashtbl.find_opt nd.routes dest with
        | Some { r_path = _ :: hop :: _; _ } when hop = src ->
            Hashtbl.remove nd.routes dest;
            withdraw_route t nd dest
        | _ -> ())
    | Msg.Resolve_insert { origin; origin_name; addr; target_lm } ->
        if v = target_lm then begin
          Hashtbl.replace nd.res_store origin
            { a_addr = addr; a_expires = now t +. addr_ttl t; a_forwarded = now t };
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
            |> List.sort compare
          in
          let hops =
            match Hashtbl.find_opt nd.routes origin with
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
            candidates;
          ignore origin_name
        end
        else begin
          match next_hop_toward nd target_lm with
          | Some hop ->
              Sim.send t.sim ~src:v ~dst:hop
                (Msg.Resolve_insert { origin; origin_name; addr; target_lm })
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

let create ?(config = default_config) ~rng ~graph ~n_estimate () =
  let n = Graph.n graph in
  let nodes =
    Array.init n (fun id ->
        let name = Name.default id in
        {
          id;
          name;
          hash = Name.hash name;
          rng = Rng.split rng;
          active = false;
          n_est = n_estimate;
          is_lm = false;
          lm_ref_n = n_estimate;
          group_bits = Hash_space.group_size_bits ~n_estimate;
          routes = Hashtbl.create 32;
          addr_store = Hashtbl.create 32;
          res_store = Hashtbl.create 8;
          last_heard = Hashtbl.create 8;
          fingers = [];
        })
  in
  let t = { graph; config; sim = Sim.create ~graph (); nodes } in
  Sim.set_handler t.sim (handle t);
  t

let activate t v =
  let nd = t.nodes.(v) in
  if not nd.active then begin
    nd.active <- true;
    nd.is_lm <- Rng.bernoulli nd.rng (Params.landmark_probability t.config.params ~n:nd.n_est);
    nd.lm_ref_n <- nd.n_est;
    Hashtbl.reset nd.routes;
    Hashtbl.reset nd.addr_store;
    Hashtbl.reset nd.res_store;
    (* Jittered timer starts keep the event pattern realistic. *)
    let jitter scale = Rng.float nd.rng scale in
    Sim.schedule t.sim ~delay:(jitter 1.0) (hello_timer t v);
    Sim.schedule t.sim ~delay:(jitter 1.0) (fun () ->
        announce_self t t.nodes.(v);
        refresh_timer t v ());
    Sim.schedule t.sim ~delay:(2.0 +. jitter t.config.hello_interval) (addr_timer t v)
  end

let activate_all t =
  for v = 0 to Graph.n t.graph - 1 do
    activate t v
  done

let deactivate t v = t.nodes.(v).active <- false

let set_estimate t v ~n =
  let nd = t.nodes.(v) in
  nd.n_est <- n;
  nd.group_bits <- Hash_space.group_size_bits ~n_estimate:n;
  let ratio = float_of_int (max n nd.lm_ref_n) /. float_of_int (max 1 (min n nd.lm_ref_n)) in
  if nd.active && ratio >= 2.0 then begin
    nd.lm_ref_n <- n;
    let status = Rng.bernoulli nd.rng (Params.landmark_probability t.config.params ~n) in
    if status <> nd.is_lm then begin
      nd.is_lm <- status;
      announce_self t nd
    end
  end

let run_until t time = Sim.run ~until:time t.sim

(* --- data-plane walk ------------------------------------------------------ *)

let route t ~src ~dst =
  let n = Graph.n t.graph in
  let rec follow u rest acc ttl =
    (* Follow a concrete path, with to-destination re-checks per hop. *)
    if ttl = 0 then None
    else if u = dst then Some (List.rev (u :: acc))
    else begin
      let nd = t.nodes.(u) in
      if not nd.active then None
      else begin
        match Hashtbl.find_opt nd.routes dst with
        | Some { r_path = _ :: direct; _ } when direct <> rest ->
            step u direct acc ttl (* divert along our own route *)
        | _ -> step u rest acc ttl
      end
    end
  and step u rest acc ttl =
    match rest with
    | [] -> None
    | next :: rest' ->
        if not t.nodes.(next).active then None
        else follow next rest' (u :: acc) (ttl - 1)
  and seek u acc ttl =
    if ttl = 0 then None
    else if u = dst then Some (List.rev (u :: acc))
    else begin
      let nd = t.nodes.(u) in
      if not nd.active then None
      else begin
        match Hashtbl.find_opt nd.routes dst with
        | Some { r_path = _ :: rest; _ } -> step u rest acc ttl
        | _ -> (
            match Hashtbl.find_opt nd.addr_store dst with
            | Some { a_addr = { Msg.lm; lm_path }; _ } -> carry_address u lm lm_path acc ttl
            | None -> (
                (* Resolution: head for the owner landmark; it knows. *)
                match resolution_owner t nd t.nodes.(dst).name with
                | None -> None
                | Some owner ->
                    if owner = u then begin
                      match Hashtbl.find_opt nd.res_store dst with
                      | Some { a_addr = { Msg.lm; lm_path }; _ } ->
                          carry_address u lm lm_path acc ttl
                      | None -> None
                    end
                    else begin
                      match next_hop_toward nd owner with
                      | Some hop when t.nodes.(hop).active ->
                          seek_toward hop owner (u :: acc) (ttl - 1)
                      | _ -> None
                    end))
      end
    end
  and seek_toward u owner acc ttl =
    (* Riding hop-by-hop toward the resolution owner, still only carrying
       the name; any node that knows better answers sooner. *)
    if ttl = 0 then None
    else begin
      let nd = t.nodes.(u) in
      if not nd.active then None
      else if Hashtbl.mem nd.routes dst || Hashtbl.mem nd.addr_store dst || u = owner
      then seek u acc ttl
      else begin
        match next_hop_toward nd owner with
        | Some hop when t.nodes.(hop).active -> seek_toward hop owner (u :: acc) (ttl - 1)
        | _ -> None
      end
    end
  and carry_address u lm lm_path acc ttl =
    if u = lm then follow u (List.tl lm_path) acc ttl
    else begin
      let nd = t.nodes.(u) in
      match Hashtbl.find_opt nd.routes lm with
      | Some { r_path = _ :: to_lm; _ } ->
          (* Ride to the landmark, then the explicit route. *)
          follow u (to_lm @ List.tl lm_path) acc ttl
      | _ -> None
    end
  in
  if src = dst then Some [ src ]
  else if not (t.nodes.(src).active && t.nodes.(dst).active) then None
  else seek src [] (4 * n)

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
