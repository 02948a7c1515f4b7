module Graph = Disco_graph.Graph
module Bits = Disco_util.Bits

type reason =
  | Ttl_expired
  | Loop_detected
  | No_route
  | Protocol_error of string

type phase =
  | Seek of { tried_proxy : bool }
  | Steer of { tried_proxy : bool }
  | Carry
  | Greedy
  | Fallback

type header = {
  dst : int;
  phase : phase;
  labels : int list;
  waypoint : int;
  anchor : int;
  fbound : float;
  vbound : Disco_hash.Hash_space.id;
  extra_bytes : int;
}

let plain ~dst phase =
  {
    dst;
    phase;
    labels = [];
    waypoint = -1;
    anchor = -1;
    fbound = infinity;
    vbound = Int64.minus_one;
    extra_bytes = 0;
  }

type action =
  | Delivered
  | Dropped of reason
  | Direct_route
  | Group_store_hit
  | To_group_proxy of int
  | Resolution_via of int
  | Shortcut_divert
  | Address_rewrite
  | Directory_detour of int
  | Toward_pivot of int
  | Label_hop
  | Hop of int
  | Greedy_commit of int
  | Fallback_descent

let reason_to_string = function
  | Ttl_expired -> "ttl expired"
  | Loop_detected -> "loop detected"
  | No_route -> "no route"
  | Protocol_error what -> "protocol error: " ^ what

let action_to_string = function
  | Delivered -> "deliver"
  | Dropped r -> "drop: " ^ reason_to_string r
  | Direct_route -> "direct route in local tables"
  | Group_store_hit -> "group store hit: rewriting with destination address"
  | To_group_proxy w -> Printf.sprintf "forwarding to group proxy %d" w
  | Resolution_via lm -> Printf.sprintf "resolution fallback via landmark %d" lm
  | Shortcut_divert -> "to-destination shortcut"
  | Address_rewrite -> "address learned: explicit label route"
  | Directory_detour r -> Printf.sprintf "directory detour via %d" r
  | Toward_pivot w -> Printf.sprintf "toward routing pivot %d" w
  | Label_hop -> "label hop"
  | Hop v -> Printf.sprintf "forward to %d" v
  | Greedy_commit e -> Printf.sprintf "greedy commit toward %d" e
  | Fallback_descent -> "fallback: descending beacon tree"

type decision =
  | Forward of int
  | Rewrite of header * int * action
  | Deliver
  | Drop of reason

(* --- the label leg -----------------------------------------------------

   Every scheme rides explicit routes the same way: a Carry header whose
   labels are the route after the current node, one label consumed per
   hop.  The fast twins ([fast_carry], [fast_label_hop]) follow the
   route-window helpers below. *)

let carry_header ~dst path =
  match path with
  | _ :: rest -> { (plain ~dst Carry) with labels = rest }
  | [] -> plain ~dst Carry

let carry_along h path why =
  match path with
  | _ :: next :: rest ->
      Rewrite ({ h with phase = Carry; labels = rest; waypoint = -1 }, next, why)
  | _ -> Drop No_route

let label_hop h =
  match h.labels with
  | next :: rest -> Rewrite ({ h with labels = rest }, next, Label_hop)
  | [] -> Drop No_route

type step = { at : int; action : action }

type trace = {
  path : int list;
  steps : step list;
  delivered : bool;
  dropped : reason option;
  hops : int;
  rewrites : int;
  header_bytes_max : int;
  header_bytes_total : int;
}

(* Hoisted out of [byte_size] so the per-hop byte accounting does not
   allocate a fresh closure per call (lint L7). *)
let rec label_bits_from g u bits = function
  | [] -> bits
  | v :: rest -> label_bits_from g v (bits + Bits.width_for (Graph.degree g u)) rest

(* The destination's self-certifying name: a 160-bit hash. *)
let name_bytes = 20

let byte_size g ~at h =
  let label_bits = label_bits_from g at 0 h.labels in
  let id_bits = if Graph.n g <= 1 then 1 else Bits.width_for (Graph.n g) in
  let bits =
    (8 * name_bytes) + label_bits
    + (if h.waypoint >= 0 then id_bits else 0)
    + (if h.anchor >= 0 then id_bits else 0)
    + (if Float.is_finite h.fbound then 32 else 0)
    + (if Int64.equal h.vbound Int64.minus_one then 0 else 64)
    + (8 * h.extra_bytes)
  in
  (bits + 7) / 8

(* Phase as a small int, mirroring [phase] exactly (the [tried_proxy] bit
   is the low bit of the seek/steer pair): the wire's mode byte, and the
   loop key's phase comparison. *)
let mode_seek = 0
let mode_seek_tried = 1
let mode_steer = 2
let mode_steer_tried = 3
let mode_carry = 4
let mode_greedy = 5
let mode_fallback = 6

let mode_of_phase = function
  | Seek { tried_proxy } -> if tried_proxy then mode_seek_tried else mode_seek
  | Steer { tried_proxy } -> if tried_proxy then mode_steer_tried else mode_steer
  | Carry -> mode_carry
  | Greedy -> mode_greedy
  | Fallback -> mode_fallback

(* Loop detection keys on the exact in-flight state: node id plus every
   header field, compared field by field by these allocation-free helpers
   (no polymorphic comparison of variants).  Revisiting a node with a
   different header is legal; an identical state can never progress under
   a deterministic forward function.  Float.equal identifies -0.0 with
   0.0, which no forward's comparisons can tell apart either. *)
let rec same_labels a b =
  match a with
  | [] -> ( match b with [] -> true | _ :: _ -> false)
  | (x : int) :: a' -> (
      match b with y :: b' -> x = y && same_labels a' b' | [] -> false)

let same_header a b =
  a.dst = b.dst
  && mode_of_phase a.phase = mode_of_phase b.phase
  && a.waypoint = b.waypoint && a.anchor = b.anchor
  && Float.equal a.fbound b.fbound
  && Int64.equal a.vbound b.vbound
  && a.extra_bytes = b.extra_bytes
  && same_labels a.labels b.labels

let rec seen_among h = function
  | [] -> false
  | h' :: rest -> same_header h h' || seen_among h rest

(* [walk] is hot (the manifest's hop loop) but it is the *instrumented*
   reference walker: it exists to produce a trace, so the trace recording
   itself (step list, path list, seen-table) is the product and carries
   waivers.  What the typed pass holds allocation-free is the per-hop
   decision machinery: byte accounting (byte_size), the link-membership
   check (Graph.has_edge), the degree/width lookups, and the loop key's
   field-by-field comparison; a hop's loop-detection cost is one table
   cell for its (node, header) state, with no key string rendered.  The
   per-walk setup (six closures, five refs, one table) is O(1) per walk,
   not per hop, and is waived as such below.  The planned zero-alloc
   walker (ROADMAP) will drop the trace and keep the same forward
   contract. *)
let walk ?ttl g ~forward ~src header =
  let n = Graph.n g in
  let ttl0 = match ttl with Some t -> t | None -> 4 * n in
  (* disco-lint: allow L7 per-walk trace accumulators, not per-hop *)
  let steps = ref [] and path = ref [ src ] in
  (* disco-lint: allow L7 per-walk counters *)
  let rewrites = ref 0 in
  (* disco-lint: allow L7 per-walk counters *)
  let bytes_max = ref 0 and bytes_total = ref 0 in
  (* disco-lint: allow L7 per-walk loop-detection table: node -> headers seen there *)
  let seen = Hashtbl.create 16 in
  (* disco-lint: allow L7 per-walk closure; the step record and cons are the trace product *)
  let log at action = steps := { at; action } :: !steps in
  (* disco-lint: allow L7 per-walk closure over the byte counters *)
  let account at h =
    let b = byte_size g ~at h in
    if b > !bytes_max then bytes_max := b;
    bytes_total := !bytes_total + b
  in
  (* disco-lint: allow L7 per-walk closure; builds the result trace once *)
  let finish ~delivered ~dropped =
    (* disco-lint: allow L7 result construction: one trace record per walk *)
    let p = List.rev !path in
    (* disco-lint: allow L7 result construction: one trace record per walk *)
    let s = List.rev !steps in
    (* disco-lint: allow L7 result construction: one trace record per walk *)
    {
      path = p;
      steps = s;
      delivered;
      dropped;
      hops = List.length p - 1;
      rewrites = !rewrites;
      header_bytes_max = !bytes_max;
      header_bytes_total = !bytes_total;
    }
  in
  (* disco-lint: allow L7 per-walk closure; drop path, executed at most once *)
  let fail u r =
    log u (Dropped r);
    finish ~delivered:false ~dropped:(Some r)
  in
  (* disco-lint: allow L7 per-walk closure pair (go/hop) driving the hop loop *)
  let rec go u h ttl =
    if ttl = 0 then fail u Ttl_expired
    else begin
      (* disco-lint: allow L7 loop-detection lookup: the list of headers already seen at u *)
      if seen_among h (Hashtbl.find_all seen u) then fail u Loop_detected
      else begin
        (* disco-lint: allow L7 seen-table insert: loop detection is the walker's contract *)
        Hashtbl.add seen u h;
        (* disco-lint: allow L7 the scheme's forward is the function under test; its own hot body is checked separately *)
        match forward h ~at:u with
        | Deliver ->
            if u = h.dst then begin
              log u Delivered;
              finish ~delivered:true ~dropped:None
            end
            else fail u (Protocol_error "deliver away from the destination")
        | Drop r -> fail u r
        | Forward next ->
            log u (Hop next);
            hop u h next ttl
        | Rewrite (h', next, why) ->
            log u why;
            incr rewrites;
            hop u h' next ttl
      end
    end
  (* disco-lint: allow L7 per-walk closure pair (go/hop) driving the hop loop *)
  and hop u h next ttl =
    (* The one mechanical check of "forward consults only local state":
       whatever the node decided, the packet can only cross a real link.
       has_edge is the allocation-free membership probe (L7): the former
       edge_weight match boxed a float option on every hop. *)
    if not (Graph.has_edge g u next) then
      (* disco-lint: allow L7 protocol-violation diagnostic on the drop path *)
      fail u (Protocol_error (Printf.sprintf "%d is not a neighbor" next))
    else begin
      account u h;
      (* disco-lint: allow L7 path cons is the trace product *)
      path := next :: !path;
      go next h (ttl - 1)
    end
  in
  (* The source's initial header is on the wire for hop one; account for
     it even on a source-delivered packet so byte telemetry never reads
     zero for a walked packet. *)
  if src = header.dst then begin
    account src header;
    (* disco-lint: allow L7 the scheme's forward is the function under test; its own hot body is checked separately *)
    match forward header ~at:src with
    | Deliver ->
        log src Delivered;
        finish ~delivered:true ~dropped:None
    | Drop r -> fail src r
    | Forward _ | Rewrite _ ->
        fail src (Protocol_error "forwarding away from the destination")
  end
  else go src header ttl0

(* --- zero-alloc fast path ------------------------------------------------

   The batched walker: headers live pre-encoded in reusable [Bytes], the
   in-flight state lives in one preallocated {!packet} scratch record, and
   each scheme supplies a *compiled forward* ([packet -> int -> int]) whose
   hop loop is pure array indexing.  The typed {!walk} above stays the
   oracle — disco-check's fast≡typed differential holds the two walkers to
   the same hop sequence and verdict — while this path answers the
   throughput question ({!fast_walk}, which perfbench times end to end).

   Everything below the setup-time encoders is on the L7 hot manifest:
   no closures, no tuples, no options, no boxed floats in any per-hop
   body.  Floats travel through the caller-owned [pfs] scratch (a flat
   float array, so loads and stores are unboxed). *)

(* Verdicts of a compiled forward: a non-negative result is the next hop;
   the negatives are the terminal outcomes. *)
let fast_deliver = -1
let fast_no_route = -2
let fast_protocol = -3

(* Why a fast walk ended, in [pdrop] ([drop_none] while delivered/running). *)
let drop_none = 0
let drop_ttl = 1
let drop_no_route = 2
let drop_protocol = 3

let drop_to_string = function
  | 0 -> "none"
  | 1 -> "ttl expired"
  | 2 -> "no route"
  | 3 -> "protocol error"
  | d -> Printf.sprintf "unknown drop %d" d

(* The in-flight packet: one mutable scratch record reused across every
   flow of a batch.  [proute] holds the remaining explicit route as node
   ids ([proute_pos..proute_end)); [pfs] is float scratch with the BVR
   fallback bound pinned at slot 0; [pis] is int scratch; the VRR virtual
   bound travels as two unsigned 32-bit halves so no Int64 is ever boxed
   on the hop loop. *)
type packet = {
  mutable pdst : int;
  mutable pmode : int;
  mutable pway : int;
  mutable panchor : int;
  mutable pvb_hi : int;
  mutable pvb_lo : int;
  mutable pextra : int;
  mutable proute_pos : int;
  mutable proute_end : int;
  mutable phops : int;
  mutable pdelivered : bool;
  mutable pdrop : int;
  proute : int array;
  pfs : float array;
  pis : int array;
}

(* Scratch slots, by convention across the compiled forwards. *)
let fs_fbound = 0

let packet_create g =
  {
    pdst = -1;
    pmode = mode_carry;
    pway = -1;
    panchor = -1;
    pvb_hi = 0xFFFFFFFF;
    pvb_lo = 0xFFFFFFFF;
    pextra = 0;
    proute_pos = 0;
    proute_end = 0;
    phops = 0;
    pdelivered = false;
    pdrop = drop_none;
    proute = Array.make ((2 * Graph.n g) + 8) (-1);
    pfs = Array.make 8 0.0;
    pis = Array.make 8 0;
  }

(* --- remaining-route helpers (hot, called by the compiled forwards) --- *)

let route_len pkt = pkt.proute_end - pkt.proute_pos

let route_next pkt =
  let v = pkt.proute.(pkt.proute_pos) in
  pkt.proute_pos <- pkt.proute_pos + 1;
  v

(* The label leg's fast twins: [fast_carry] is {!carry_along} over a route
   window the caller has just filled, [fast_label_hop] is {!label_hop}. *)
let fast_carry pkt =
  pkt.pmode <- mode_carry;
  pkt.pway <- -1;
  route_next pkt

let fast_label_hop pkt =
  if route_len pkt > 0 then route_next pkt else fast_no_route

(* Ascent fill: the labels of tree path [u ~> root] where [parents] points
   rootward ([parents.(x)] is x's next hop toward [root]).  Writes
   [parents.(u); ...; root] from slot 0, sets the route window, returns
   the label count (0 when [u = root]); -1 on a broken parent chain. *)
let rec fill_up_loop pkt parents x i root =
  if x = root then begin
    pkt.proute_pos <- 0;
    pkt.proute_end <- i;
    i
  end
  else
    let p = parents.(x) in
    if p < 0 then -1
    else begin
      pkt.proute.(i) <- p;
      fill_up_loop pkt parents p (i + 1) root
    end

let route_fill_up pkt parents u root = fill_up_loop pkt parents u 0 root

(* Does the parent chain from [u] actually reach [root]?  The fills above
   scribble over [proute] as they walk, so a caller diverting away from a
   live route must probe the chain first and only fill on success. *)
let rec route_chain_ok parents u root =
  u = root || (parents.(u) >= 0 && route_chain_ok parents parents.(u) root)

(* Descent fill: the labels of tree path [root ~> v] where [parents]
   points rootward.  Writes [child-of-root; ...; v] ending at the top of
   [proute], sets the route window, returns the label count (0 when
   [v = root]); -1 on a broken chain. *)
let rec fill_down_loop pkt parents x i root =
  if x = root then begin
    pkt.proute_pos <- i;
    pkt.proute_end <- Array.length pkt.proute;
    Array.length pkt.proute - i
  end
  else if parents.(x) < 0 then -1
  else begin
    pkt.proute.(i - 1) <- x;
    fill_down_loop pkt parents parents.(x) (i - 1) root
  end

let route_fill_down pkt parents root v =
  fill_down_loop pkt parents v (Array.length pkt.proute) root

(* --- wire codec -----------------------------------------------------------

   Fixed 33-byte header, then the explicit route as packed neighbor-rank
   bits (§4.2's forwarding labels, the same accounting as {!byte_size}):

     [0]      mode
     [1..4]   dst          (u32 BE)
     [5..8]   waypoint + 1 (u32 BE; 0 = none)
     [9..12]  anchor + 1   (u32 BE; 0 = none)
     [13..20] fbound       (IEEE-754 bits, hi then lo u32)
     [21..28] vbound       (unsigned hi then lo u32)
     [29..30] extra_bytes  (u16 BE)
     [31..32] label count  (u16 BE)
     [33..]   labels, MSB-first; each hop at a degree-d node takes
              [Bits.width_for d] bits

   Encoding runs at setup time and may allocate; {!decode_into} is the
   per-flow hot entry and is allocation-free. *)

let header_fixed_bytes = 33

let encoded_size g ~src h =
  header_fixed_bytes + ((label_bits_from g src 0 h.labels + 7) / 8)

let set_u8 buf pos v = Bytes.set buf pos (Char.chr (v land 0xff))

let set_u32 buf pos v =
  set_u8 buf pos (v lsr 24);
  set_u8 buf (pos + 1) (v lsr 16);
  set_u8 buf (pos + 2) (v lsr 8);
  set_u8 buf (pos + 3) v

let set_bit buf ~base bit v =
  if v <> 0 then
    let byte = base + (bit / 8) and off = bit mod 8 in
    Bytes.set buf byte
      (Char.chr (Char.code (Bytes.get buf byte) lor (0x80 lsr off)))

let encode_header g ~src h buf ~pos =
  let size = encoded_size g ~src h in
  if pos + size > Bytes.length buf then invalid_arg "Dataplane.encode_header";
  Bytes.fill buf pos size '\000';
  set_u8 buf pos (mode_of_phase h.phase);
  set_u32 buf (pos + 1) h.dst;
  set_u32 buf (pos + 5) (h.waypoint + 1);
  set_u32 buf (pos + 9) (h.anchor + 1);
  let fb = Int64.bits_of_float h.fbound in
  set_u32 buf (pos + 13) (Int64.to_int (Int64.shift_right_logical fb 32));
  set_u32 buf (pos + 17) (Int64.to_int (Int64.logand fb 0xFFFFFFFFL));
  set_u32 buf (pos + 21)
    (Int64.to_int (Int64.shift_right_logical h.vbound 32));
  set_u32 buf (pos + 25) (Int64.to_int (Int64.logand h.vbound 0xFFFFFFFFL));
  set_u8 buf (pos + 29) (h.extra_bytes lsr 8);
  set_u8 buf (pos + 30) h.extra_bytes;
  let count = List.length h.labels in
  if count > 0xffff then invalid_arg "Dataplane.encode_header: route too long";
  set_u8 buf (pos + 31) (count lsr 8);
  set_u8 buf (pos + 32) count;
  let base = pos + header_fixed_bytes in
  let bit = ref 0 in
  let at = ref src in
  List.iter
    (fun v ->
      let w = Bits.width_for (Graph.degree g !at) in
      let rank =
        match Graph.neighbor_rank g !at v with
        | Some r -> r
        | None ->
            invalid_arg
              (Printf.sprintf "Dataplane.encode_header: %d not a neighbor of %d"
                 v !at)
      in
      for i = w - 1 downto 0 do
        set_bit buf ~base !bit ((rank lsr i) land 1);
        incr bit
      done;
      at := v)
    h.labels;
  size

(* --- alloc-free decoding (hot) ------------------------------------- *)

let get_u8 buf pos = Char.code (Bytes.get buf pos)

let get_u32 buf pos =
  (get_u8 buf pos lsl 24)
  lor (get_u8 buf (pos + 1) lsl 16)
  lor (get_u8 buf (pos + 2) lsl 8)
  lor get_u8 buf (pos + 3)

let rec read_bits buf ~base bit width acc =
  if width = 0 then acc
  else
    let byte = base + (bit / 8) and off = bit mod 8 in
    let b = (Char.code (Bytes.get buf byte) lsr (7 - off)) land 1 in
    read_bits buf ~base (bit + 1) (width - 1) ((acc lsl 1) lor b)

(* Exact IEEE-754 double reassembly from two unsigned 32-bit halves with
   no Int64 box: sign/exponent/mantissa arithmetic plus one [ldexp]
   (an unboxed [@@noalloc] external).  Inlined so the float result flows
   unboxed into the caller's float-array store — as an outlined call the
   boxed return costs 2 minor words per decoded packet. *)
let[@inline always] float_of_bits_hl hi lo =
  let sign = if hi land 0x80000000 <> 0 then -1.0 else 1.0 in
  let e = (hi lsr 20) land 0x7ff in
  let m = ((hi land 0xfffff) lsl 32) lor lo in
  if e = 0x7ff then if m = 0 then sign *. infinity else nan
  else if e = 0 then sign *. ldexp (float_of_int m) (-1074)
  else sign *. ldexp (float_of_int (m + 0x10000000000000)) (e - 1075)

let rec decode_labels g pkt buf ~base bit u i count =
  if i < count then begin
    let w = Bits.width_for (Graph.degree g u) in
    let r = read_bits buf ~base bit w 0 in
    let v = Graph.neighbor_at g u r in
    pkt.proute.(i) <- v;
    decode_labels g pkt buf ~base (bit + w) v (i + 1) count
  end

(* Per-flow hot entry: rehydrate the scratch packet from the wire bytes.
   [src] resolves the neighbor-rank labels back to node ids. *)
let decode_into g pkt buf ~pos ~src =
  pkt.pmode <- get_u8 buf pos;
  pkt.pdst <- get_u32 buf (pos + 1);
  pkt.pway <- get_u32 buf (pos + 5) - 1;
  pkt.panchor <- get_u32 buf (pos + 9) - 1;
  pkt.pfs.(fs_fbound) <- float_of_bits_hl (get_u32 buf (pos + 13))
      (get_u32 buf (pos + 17));
  pkt.pvb_hi <- get_u32 buf (pos + 21);
  pkt.pvb_lo <- get_u32 buf (pos + 25);
  pkt.pextra <- (get_u8 buf (pos + 29) lsl 8) lor get_u8 buf (pos + 30);
  let count = (get_u8 buf (pos + 31) lsl 8) lor get_u8 buf (pos + 32) in
  pkt.proute_pos <- 0;
  pkt.proute_end <- count;
  decode_labels g pkt buf ~base:(pos + header_fixed_bytes) 0 src 0 count;
  pkt.phops <- 0;
  pkt.pdelivered <- false;
  pkt.pdrop <- drop_none

(* Load the scratch packet straight from a typed header (no wire bytes);
   the differential uses it to cross-check encode/decode against direct
   loading.  Setup-time. *)
let load_packet pkt h =
  pkt.pmode <- mode_of_phase h.phase;
  pkt.pdst <- h.dst;
  pkt.pway <- h.waypoint;
  pkt.panchor <- h.anchor;
  pkt.pfs.(fs_fbound) <- h.fbound;
  pkt.pvb_hi <- Int64.to_int (Int64.shift_right_logical h.vbound 32);
  pkt.pvb_lo <- Int64.to_int (Int64.logand h.vbound 0xFFFFFFFFL);
  pkt.pextra <- h.extra_bytes;
  pkt.proute_pos <- 0;
  pkt.proute_end <- List.length h.labels;
  List.iteri (fun i v -> pkt.proute.(i) <- v) h.labels;
  pkt.phops <- 0;
  pkt.pdelivered <- false;
  pkt.pdrop <- drop_none

(* --- the fast walker (hot) ------------------------------------------ *)

(* A scheme's compiled face: [fstep pkt u] is the zero-alloc per-hop
   decision (next hop or a negative verdict); [fprime ~src ~dst] forces
   any lazily-built node state for the flow at setup time so the hop loop
   never fills a cache. *)
type fast_plan = {
  fstep : packet -> int -> int;
  fprime : src:int -> dst:int -> unit;
}

let[@hot] rec fast_loop g step pkt u ttl trail =
  if ttl = 0 then pkt.pdrop <- drop_ttl
  else
    (* disco-lint: allow L7 indirect call: the compiled forward under test; each registered target is itself on the hot manifest *)
    let r = step pkt u in
    if r >= 0 then
      if Graph.has_edge g u r then begin
        pkt.phops <- pkt.phops + 1;
        trail.(pkt.phops) <- r;
        fast_loop g step pkt r (ttl - 1) trail
      end
      else pkt.pdrop <- drop_protocol
    else if r = fast_deliver then
      if u = pkt.pdst then pkt.pdelivered <- true
      else pkt.pdrop <- drop_protocol
    else if r = fast_no_route then pkt.pdrop <- drop_no_route
    else pkt.pdrop <- drop_protocol

(* Route one decoded packet from [src]: the fast mirror of {!walk}'s
   contract (TTL counts decisions; a next hop must be a real link; Deliver
   away from the destination is a protocol error; at [src = dst] the
   scheme still decides once).  No loop detection — an in-place cycle runs
   to TTL, which the typed oracle flags as [Loop_detected] and the
   differential accepts as the same non-delivery verdict.  [trail] must
   hold [ttl + 1] slots; [trail.(0..phops)] is the hop sequence. *)
let fast_walk g ~step pkt ~src ~ttl ~trail =
  pkt.phops <- 0;
  pkt.pdelivered <- false;
  pkt.pdrop <- drop_none;
  trail.(0) <- src;
  if src = pkt.pdst then begin
    (* disco-lint: allow L7 indirect call: the compiled forward under test; each registered target is itself on the hot manifest *)
    let r = step pkt src in
    if r = fast_deliver then pkt.pdelivered <- true
    else if r = fast_no_route then pkt.pdrop <- drop_no_route
    else pkt.pdrop <- drop_protocol
  end
  else fast_loop g step pkt src ttl trail

let pp_trace ppf t =
  Format.fprintf ppf "@[<v>path: %s%s@,%a@]"
    (String.concat "-" (List.map string_of_int t.path))
    (match (t.delivered, t.dropped) with
    | true, _ -> ""
    | false, Some r -> Printf.sprintf "  (NOT DELIVERED: %s)" (reason_to_string r)
    | false, None -> "  (NOT DELIVERED)")
    (Format.pp_print_list (fun ppf s ->
         Format.fprintf ppf "  @[at %d: %s@]" s.at (action_to_string s.action)))
    t.steps
