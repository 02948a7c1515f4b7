module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Core = Disco_core
module S4 = Disco_baselines.S4
module Vrr = Disco_baselines.Vrr

type state_result = {
  disco : float array;
  nddisco : float array;
  s4 : float array;
  pathvector : float array;
  vrr : float array option;
}

let state ?(with_vrr = false) (tb : Testbed.t) =
  let arr name = Engine.state_array (Routers.find_exn name) tb in
  {
    disco = arr "disco";
    nddisco = arr "nddisco";
    s4 = arr "s4";
    pathvector = arr "pathvector";
    vrr = (if with_vrr then Some (arr "vrr") else None);
  }

let path_stretch = Engine.path_stretch

type stretch_series = { first : float array; later : float array }

type stretch_result = {
  s_disco : stretch_series;
  s_s4 : stretch_series;
  s_vrr : float array option;
  vrr_failures : int;
}

(* All route calls and VRR walks below read converged state and
   [Pool.Memo] caches only (the contract of [Protocol.ROUTER.build]), so
   per-pair mapping is safe to fan out over the pool. *)
let stretch ?(pairs = 2000) ?(with_vrr = false) ?jobs (tb : Testbed.t) =
  let heuristic = Core.Shortcut.No_path_knowledge in
  let n = Graph.n tb.graph in
  let rng = Testbed.rng tb ~purpose:11 in
  let groups = Engine.draw_pairs rng ~n ~pairs in
  let vrr = if with_vrr then Some (Testbed.vrr tb) else None in
  let per_pair =
    Engine.map_groups ?jobs ~seed:(Rng.derive tb.Testbed.seed 11) tb.graph
      groups (fun ~src:s ~dst:t ~dist ->
        let st path = path_stretch tb.graph ~dist path in
        let v =
          match vrr with
          | None -> None
          | Some v ->
              Some
                (Option.map st
                   (Walk.path_of
                      (Core.Dataplane.walk ~ttl:(Vrr.ttl_factor * n) tb.graph
                         ~forward:(Vrr.forward v) ~src:s
                         (Vrr.packet_header v ~src:s ~dst:t))))
        in
        ( st (Core.Disco.route_first ~heuristic tb.disco ~src:s ~dst:t),
          st (Core.Disco.route_later ~heuristic tb.disco ~src:s ~dst:t),
          st (S4.route_first tb.s4 ~src:s ~dst:t),
          st (S4.route_later tb.s4 ~src:s ~dst:t),
          v ))
  in
  let pick f = Array.map f per_pair in
  let vrr_samples =
    Array.to_list per_pair
    |> List.filter_map (fun (_, _, _, _, v) -> Option.join v)
    |> Array.of_list
  in
  let vrr_failures =
    Array.fold_left
      (fun acc (_, _, _, _, v) ->
        match v with Some None -> acc + 1 | Some (Some _) | None -> acc)
      0 per_pair
  in
  {
    s_disco =
      {
        first = pick (fun (x, _, _, _, _) -> x);
        later = pick (fun (_, x, _, _, _) -> x);
      };
    s_s4 =
      {
        first = pick (fun (_, _, x, _, _) -> x);
        later = pick (fun (_, _, _, x, _) -> x);
      };
    s_vrr = (if with_vrr then Some vrr_samples else None);
    vrr_failures;
  }

let mean_stretch_by_heuristic ?(pairs = 1000) ?jobs (tb : Testbed.t) =
  let n = Graph.n tb.graph in
  let rng = Testbed.rng tb ~purpose:12 in
  (* One draw shared by every heuristic: the table compares heuristics on
     identical pairs. *)
  let groups = Engine.draw_pairs rng ~n ~pairs in
  List.map
    (fun heuristic ->
      let samples =
        Engine.map_groups ?jobs ~seed:(Rng.derive tb.Testbed.seed 12) tb.graph
          groups (fun ~src:s ~dst:t ~dist ->
            path_stretch tb.graph ~dist
              (Core.Disco.route_later ~heuristic tb.disco ~src:s ~dst:t))
      in
      (heuristic, Disco_util.Stats.mean samples))
    Core.Shortcut.all

type congestion_result = {
  c_disco : float array;
  c_s4 : float array;
  c_pathvector : float array;
  c_vrr : float array option;
}

(* Congestion is not a sampled-pairs measurement: every node sources
   exactly one flow, so it keeps its own (single) loop. The flows are the
   paths packets actually take — each scheme's data plane walked hop by
   hop — not the closed-form oracle routes. *)
let congestion ?(with_vrr = false) ?tel (tb : Testbed.t) =
  let n = Graph.n tb.graph in
  let m = Graph.m tb.graph in
  let rng = Testbed.rng tb ~purpose:13 in
  (* Undirected edge id: index of the (min endpoint -> max endpoint) arc. *)
  let edge_id u v =
    let a = min u v and b = max u v in
    match Graph.edge_index tb.graph a b with
    | Some i -> i
    | None -> invalid_arg "Metrics.congestion: route uses a non-edge"
  in
  let compact = Hashtbl.create (2 * m) in
  let next = ref 0 in
  let slot arc =
    match Hashtbl.find_opt compact arc with
    | Some s -> s
    | None ->
        let s = !next in
        Hashtbl.add compact arc s;
        incr next;
        s
  in
  let use counts path =
    let rec go = function
      | [] | [ _ ] -> ()
      | u :: (v :: _ as rest) ->
          let s = slot (edge_id u v) in
          counts.(s) <- counts.(s) +. 1.0;
          go rest
    in
    go path
  in
  let disco_counts = Array.make m 0.0 in
  let s4_counts = Array.make m 0.0 in
  let pv_counts = Array.make m 0.0 in
  let vrr_counts = Array.make m 0.0 in
  let tel =
    match tel with Some t -> t | None -> Disco_util.Telemetry.create ()
  in
  let later packed =
    let module R = (val packed : Protocol.ROUTER) in
    let rt = R.build tb in
    fun ~src ~dst -> Walk.later (module R) rt ~tel ~graph:tb.graph ~src ~dst
  in
  let disco_later = later (Routers.find_exn "disco") in
  let s4_later = later (Routers.find_exn "s4") in
  let pv_later = later (Routers.find_exn "pathvector") in
  let vrr_later =
    if with_vrr then Some (later (Routers.find_exn "vrr")) else None
  in
  let walk_into counts route ~src ~dst =
    match route ~src ~dst with Some path -> use counts path | None -> ()
  in
  for s = 0 to n - 1 do
    let t = Rng.int rng n in
    if t <> s then begin
      walk_into disco_counts disco_later ~src:s ~dst:t;
      walk_into s4_counts s4_later ~src:s ~dst:t;
      walk_into pv_counts pv_later ~src:s ~dst:t;
      match vrr_later with
      | None -> ()
      | Some route -> walk_into vrr_counts route ~src:s ~dst:t
    end
  done;
  {
    c_disco = disco_counts;
    c_s4 = s4_counts;
    c_pathvector = pv_counts;
    c_vrr = (if with_vrr then Some vrr_counts else None);
  }
