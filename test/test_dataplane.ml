(* The scheme-agnostic walker itself: TTL exhaustion, loop detection,
   rewrite accounting at a proxy, the data-plane contract (neighbor hops
   only, deliver only at the destination), and header byte accounting;
   then the primitives every scheme shares: the label leg and per-root
   tree rows. *)

module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Core = Disco_core
module D = Disco_core.Dataplane

(* A weighted line 0 - 1 - ... - (n-1). *)
let line n =
  let b = Graph.Builder.create n in
  for v = 0 to n - 2 do
    Graph.Builder.add_edge b v (v + 1) 1.0
  done;
  Graph.Builder.build b

let test_ttl_exhaustion () =
  let g = line 3 in
  (* Ping-pong 0 <-> 1 forever, changing the header every hop so loop
     detection never fires: only the TTL stops the walk. *)
  let forward (h : D.header) ~at =
    let next = if at = 0 then 1 else 0 in
    D.Rewrite ({ h with D.extra_bytes = h.D.extra_bytes + 1 }, next, D.Hop next)
  in
  let tr = D.walk ~ttl:7 g ~forward ~src:0 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check bool) "not delivered" false tr.D.delivered;
  Alcotest.(check bool) "ttl expired" true (tr.D.dropped = Some D.Ttl_expired);
  Alcotest.(check int) "stopped at the ttl" 7 tr.D.hops

let test_loop_detected () =
  let g = line 3 in
  (* The same ping-pong with an unchanged header: revisiting node 0 in an
     identical state is cut immediately, long before the TTL. *)
  let forward (_ : D.header) ~at = D.Forward (if at = 0 then 1 else 0) in
  let tr = D.walk g ~forward ~src:0 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check bool) "loop detected" true (tr.D.dropped = Some D.Loop_detected);
  Alcotest.(check int) "cut at first state recurrence" 2 tr.D.hops

(* The loop key covers every header field: a ping-pong whose forward
   changes only one field on every hop never repeats a (node, header)
   state, so it must run to its TTL.  The phase sequence puts states that
   differ only in [tried_proxy] at the same node two decisions apart. *)
let test_loop_key_covers_every_field () =
  let g = line 3 in
  let phases =
    [|
      D.Seek { tried_proxy = false };
      D.Steer { tried_proxy = false };
      D.Seek { tried_proxy = true };
      D.Steer { tried_proxy = true };
      D.Carry;
      D.Greedy;
      D.Fallback;
    |]
  in
  let ttl = Array.length phases in
  let fields : (string * (int -> D.header -> D.header)) list =
    [
      ("dst", fun k h -> { h with D.dst = 3 + k });
      ("phase", fun k h -> { h with D.phase = phases.(k mod ttl) });
      ("labels", fun k h -> { h with D.labels = [ k mod 3; k / 3 ] });
      ("waypoint", fun k h -> { h with D.waypoint = k });
      ("anchor", fun k h -> { h with D.anchor = k });
      ("fbound", fun k h -> { h with D.fbound = float_of_int k });
      ("vbound", fun k h -> { h with D.vbound = Int64.of_int k });
      ("extra_bytes", fun k h -> { h with D.extra_bytes = k });
    ]
  in
  List.iter
    (fun (field, set) ->
      let decisions = ref 0 in
      let forward (h : D.header) ~at =
        incr decisions;
        let next = if at = 0 then 1 else 0 in
        D.Rewrite (set !decisions h, next, D.Hop next)
      in
      let tr = D.walk ~ttl g ~forward ~src:0 (set 0 (D.plain ~dst:2 D.Carry)) in
      if tr.D.dropped <> Some D.Ttl_expired || tr.D.hops <> ttl then
        Alcotest.failf "changing only %s: walk ended after %d hops (%s), not at the ttl"
          field tr.D.hops
          (match tr.D.dropped with Some r -> D.reason_to_string r | None -> "delivered"))
    fields

let test_rewrite_at_proxy () =
  let g = line 4 in
  (* Steer to waypoint 2 on explicit labels; the waypoint rewrites the
     header with the onward route — the shape of every lookup detour. *)
  let forward (h : D.header) ~at =
    match (h.D.phase, h.D.labels) with
    | D.Carry, [] -> if at = h.D.dst then D.Deliver else D.Drop D.No_route
    | (D.Steer _ | D.Carry), next :: rest ->
        D.Rewrite ({ h with D.labels = rest }, next, D.Label_hop)
    | D.Steer _, [] ->
        D.Rewrite
          ( { h with D.phase = D.Carry; labels = []; waypoint = -1 },
            3,
            D.Address_rewrite )
    | _ -> D.Drop (D.Protocol_error "unexpected phase")
  in
  let header =
    { (D.plain ~dst:3 (D.Steer { tried_proxy = false })) with
      D.labels = [ 1; 2 ];
      waypoint = 2;
    }
  in
  let tr = D.walk g ~forward ~src:0 header in
  Alcotest.(check bool) "delivered" true tr.D.delivered;
  Alcotest.(check (list int)) "path rides through the proxy" [ 0; 1; 2; 3 ] tr.D.path;
  (* Two label hops, then the address rewrite at the proxy. *)
  Alcotest.(check int) "rewrites counted" 3 tr.D.rewrites;
  Alcotest.(check bool) "proxy rewrite recorded" true
    (List.exists
       (fun (s : D.step) -> s.D.at = 2 && s.D.action = D.Address_rewrite)
       tr.D.steps)

let test_non_neighbor_is_protocol_error () =
  let g = line 4 in
  let forward (_ : D.header) ~at:_ = D.Forward 3 (* 3 is not adjacent to 0 *) in
  let tr = D.walk g ~forward ~src:0 (D.plain ~dst:3 D.Carry) in
  Alcotest.(check bool) "dropped as protocol error" true
    (match tr.D.dropped with Some (D.Protocol_error _) -> true | _ -> false);
  Alcotest.(check int) "no hop taken" 0 tr.D.hops

let test_deliver_away_from_dst_is_protocol_error () =
  let g = line 4 in
  let forward (_ : D.header) ~at:_ = D.Deliver in
  let tr = D.walk g ~forward ~src:0 (D.plain ~dst:3 D.Carry) in
  Alcotest.(check bool) "not delivered" false tr.D.delivered;
  Alcotest.(check bool) "dropped as protocol error" true
    (match tr.D.dropped with Some (D.Protocol_error _) -> true | _ -> false)

let test_src_equals_dst () =
  let g = line 4 in
  let forward (h : D.header) ~at =
    if at = h.D.dst then D.Deliver else D.Drop D.No_route
  in
  let tr = D.walk g ~forward ~src:2 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check bool) "delivered" true tr.D.delivered;
  Alcotest.(check (list int)) "stays put" [ 2 ] tr.D.path;
  Alcotest.(check int) "no hops" 0 tr.D.hops

let test_byte_accounting () =
  let g = line 4 in
  (* A plain header is just the self-certifying name. *)
  let plain = D.plain ~dst:3 D.Carry in
  Alcotest.(check int) "plain = name bytes" 20 (D.byte_size g ~at:0 plain);
  (* Every optional field strictly grows the header. *)
  let grows label h =
    if D.byte_size g ~at:0 h <= D.byte_size g ~at:0 plain then
      Alcotest.failf "%s did not grow the header" label
  in
  grows "labels" { plain with D.labels = [ 1; 2; 3 ] };
  grows "waypoint" { plain with D.waypoint = 2 };
  grows "anchor" { plain with D.anchor = 2 };
  grows "fbound" { plain with D.fbound = 1.5 };
  grows "vbound" { plain with D.vbound = 7L };
  grows "extra bytes" { plain with D.extra_bytes = 4 };
  (* The walker sums per-hop sizes: three unit hops with a constant-size
     header give total = 3 * max. *)
  let forward (h : D.header) ~at =
    if at = h.D.dst then D.Deliver
    else
      match h.D.labels with
      | next :: rest -> D.Rewrite ({ h with D.labels = rest }, next, D.Label_hop)
      | [] -> D.Drop D.No_route
  in
  let tr =
    D.walk g ~forward ~src:0 { (D.plain ~dst:3 D.Carry) with D.labels = [ 1; 2; 3 ] }
  in
  Alcotest.(check bool) "delivered" true tr.D.delivered;
  Alcotest.(check bool) "bytes accounted on every hop" true
    (tr.D.header_bytes_total >= tr.D.hops * 20
    && tr.D.header_bytes_max >= 20
    && tr.D.header_bytes_total <= tr.D.hops * tr.D.header_bytes_max)

(* The shared label leg over shortest paths of random graphs.  Typed:
   riding [carry_header] with [label_hop] visits exactly the path, then
   drops; [carry_along] switches to Carry along a path of two or more
   nodes and drops on a shorter one.  Fast: the same route loaded into a
   packet yields the same labels through [fast_carry] then
   [fast_label_hop], then [fast_no_route]. *)
let test_label_leg () =
  let steer src =
    { (D.plain ~dst:src (D.Steer { tried_proxy = true })) with D.waypoint = src }
  in
  let rec ride h acc =
    match D.label_hop h with
    | D.Rewrite (h', next, D.Label_hop) -> ride h' (next :: acc)
    | D.Drop D.No_route -> List.rev acc
    | _ -> Alcotest.fail "label_hop: neither a label hop nor a no-route drop"
  in
  let rec fast_labels pkt acc =
    let r = D.fast_label_hop pkt in
    if r >= 0 then fast_labels pkt (r :: acc) else (List.rev acc, r)
  in
  for seed = 1 to 12 do
    let g = Helpers.random_weighted_graph seed in
    let src = seed mod Graph.n g in
    let sp = Dijkstra.sssp ~ws:(Dijkstra.make_workspace g) g src in
    let pkt = D.packet_create g in
    let h0 = steer src in
    List.iter
      (fun short ->
        Alcotest.(check bool) "carry_along drops under two nodes" true
          (D.carry_along h0 short D.Direct_route = D.Drop D.No_route))
      [ []; [ src ] ];
    for dst = 0 to Graph.n g - 1 do
      if sp.Dijkstra.dist.(dst) < infinity then begin
        let path =
          Dijkstra.path_of_parents
            ~parent:(fun u -> sp.Dijkstra.parent.(u))
            ~src ~dst
        in
        let what = Printf.sprintf "seed %d, %d->%d" seed src dst in
        Alcotest.(check (list int)) (what ^ ": typed ride") path
          (src :: ride (D.carry_header ~dst path) []);
        let h = { h0 with D.dst } in
        (match path with
        | _ :: next :: rest ->
            Alcotest.(check bool) (what ^ ": carry_along") true
              (D.carry_along h path D.Direct_route
              = D.Rewrite
                  ( { h with D.phase = D.Carry; labels = rest; waypoint = -1 },
                    next,
                    D.Direct_route ));
            D.load_packet pkt { h with D.labels = List.tl path };
            let first = D.fast_carry pkt in
            Alcotest.(check bool) (what ^ ": fast_carry enters Carry") true
              (pkt.D.pmode = D.mode_carry && pkt.D.pway = -1);
            let labels, verdict = fast_labels pkt [ first ] in
            Alcotest.(check (list int)) (what ^ ": fast labels") (List.tl path)
              labels;
            Alcotest.(check int) (what ^ ": fast end") D.fast_no_route verdict
        | _ ->
            D.load_packet pkt (D.carry_header ~dst path);
            Alcotest.(check int) (what ^ ": empty window") D.fast_no_route
              (D.fast_label_hop pkt))
      end
    done
  done

(* [Landmark_trees.prime] fills exactly the primed root's row, with the
   tree's own parent array, and a second prime changes nothing. *)
let test_prime_rows () =
  let g = Helpers.random_weighted_graph 5 in
  let trees = Core.Landmark_trees.create g ~pinned:(Array.make (Graph.n g) true) in
  let rows = Core.Landmark_trees.rows trees in
  Alcotest.(check int) "one row per node" (Graph.n g) (Array.length rows);
  let root = Graph.n g / 2 in
  Core.Landmark_trees.prime trees rows root;
  let row = rows.(root) in
  Alcotest.(check (array int)) "primed row = parents"
    (Core.Landmark_trees.parents trees ~lm:root)
    row;
  Core.Landmark_trees.prime trees rows root;
  Alcotest.(check bool) "second prime keeps the row" true (rows.(root) == row);
  Alcotest.(check int) "one tree forced" 1 (Core.Landmark_trees.cached_count trees);
  Array.iteri
    (fun v r ->
      if v <> root then
        Alcotest.(check int) (Printf.sprintf "row %d unprimed" v) 0 (Array.length r))
    rows

(* Past its budget (2^19 node entries, so 512 trees at n = 1024) the memo
   drops the least recently used unpinned tree and refills it on the next
   read, to the same tree; pinned trees are never dropped. *)
let test_unpinned_trees_bounded () =
  let n = 1024 in
  let g = Disco_graph.Gen.gnm ~rng:(Disco_util.Rng.create 5) ~n ~m:(4 * n) in
  let pinned = Array.init n (fun v -> v mod 7 = 0) in
  let trees = Core.Landmark_trees.create g ~pinned in
  let first = Array.init n (fun v -> Core.Landmark_trees.parents trees ~lm:v) in
  Array.iteri
    (fun v row ->
      Alcotest.(check (array int)) (Printf.sprintf "tree %d = Dijkstra" v)
        (Dijkstra.sssp g v).Dijkstra.parent row)
    first;
  let pinned_count = Array.fold_left (fun c p -> if p then c + 1 else c) 0 pinned in
  Alcotest.(check int) "cached_count counts the pinned trees" pinned_count
    (Core.Landmark_trees.cached_count trees);
  Array.iteri
    (fun v row ->
      let again = Core.Landmark_trees.parents trees ~lm:v in
      Alcotest.(check (array int)) (Printf.sprintf "tree %d refilled equal" v) row again;
      if pinned.(v) then
        Alcotest.(check bool) (Printf.sprintf "pinned tree %d kept" v) true (again == row))
    first;
  Alcotest.(check bool) "the oldest unpinned tree was dropped" false
    (Core.Landmark_trees.parents trees ~lm:1 == first.(1))

let suite =
  [
    Alcotest.test_case "ttl exhaustion" `Quick test_ttl_exhaustion;
    Alcotest.test_case "loop detected" `Quick test_loop_detected;
    Alcotest.test_case "loop key covers every header field" `Quick
      test_loop_key_covers_every_field;
    Alcotest.test_case "rewrite at proxy" `Quick test_rewrite_at_proxy;
    Alcotest.test_case "non-neighbor hop rejected" `Quick
      test_non_neighbor_is_protocol_error;
    Alcotest.test_case "deliver away from dst rejected" `Quick
      test_deliver_away_from_dst_is_protocol_error;
    Alcotest.test_case "src = dst" `Quick test_src_equals_dst;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
    Alcotest.test_case "label leg: typed and fast ride the path" `Quick
      test_label_leg;
    Alcotest.test_case "landmark trees: prime fills one row once" `Quick
      test_prime_rows;
    Alcotest.test_case "landmark trees: unpinned trees bounded, refilled equal" `Quick
      test_unpinned_trees_bounded;
  ]
