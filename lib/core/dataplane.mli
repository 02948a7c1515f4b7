(** Scheme-agnostic hop-by-hop data plane.

    Every routing scheme in the repo answers one question per hop: given
    the packet's header and the state the current node holds, what happens
    next?  That answer is a {!decision}; this module supplies the shared
    packet {!header}, the {!walk} loop that executes a forward function
    hop by hop (TTL bound, loop detection, per-hop header-byte
    accounting), and the {!trace} every figure and check consumes.

    The walker itself enforces the two mechanical halves of the "local
    state only" contract: a decision may only move the packet across a
    real link of the graph ({!Protocol_error} otherwise), and anything the
    deciding node wants remembered across hops must be written into the
    header (the walker threads no other state). Scheme-specific forward
    functions live next to their control planes ({!Forwarding} for Disco,
    the baselines' [forward] for the rest); the experiment layer's
    [Walk] module derives the measured routes from these walks, demoting
    the closed-form path computations to oracles. *)

module Graph = Disco_graph.Graph

(** Why a packet was dropped. *)
type reason =
  | Ttl_expired
  | Loop_detected  (** the exact (node, header) state recurred *)
  | No_route  (** the node holds no state that makes progress *)
  | Protocol_error of string
      (** the forward function broke the data-plane contract, e.g. named a
          next hop that is not a neighbor of the current node *)

(** What kind of in-flight processing the header is asking for. Each
    scheme interprets the phases it uses; the walker never inspects them
    beyond loop-detection equality. *)
type phase =
  | Seek of { tried_proxy : bool }
      (** the packet carries only the destination's flat name (Disco) *)
  | Steer of { tried_proxy : bool }
      (** riding a leg toward {!field-waypoint}; when the label list runs
          out the waypoint node decides what happens next *)
  | Carry  (** consuming an explicit label route toward the destination *)
  | Greedy  (** coordinate/ring descent (BVR, VRR) *)
  | Fallback  (** BVR tree descent after a local minimum *)

type header = {
  dst : int;  (** destination (its flat name / coordinate stands for it) *)
  phase : phase;
  labels : int list;  (** remaining explicit route, next hop first *)
  waypoint : int;  (** current intermediate target; -1 = none *)
  anchor : int;  (** scheme anchor (VRR committed endpoint, BVR beacon
                     tree index); -1 = none *)
  fbound : float;  (** BVR fallback re-entry bound; [infinity] = none *)
  vbound : Disco_hash.Hash_space.id;
      (** VRR monotone virtual-distance bound; [Int64.minus_one] (max
          unsigned) = no bound yet *)
  extra_bytes : int;
      (** fixed scheme payload carried every hop (BVR coordinate, VRR
          virtual id), counted by {!byte_size} *)
}

val plain : dst:int -> phase -> header
(** A header with no labels, waypoint, anchor or bounds. *)

(** One per-hop decision, printable for traces and inspectable by tests
    and disco-lint (no strings to match on). *)
type action =
  | Delivered
  | Dropped of reason
  | Direct_route  (** the node's own tables hold a route to the destination *)
  | Group_store_hit  (** sloppy-group store supplied the address *)
  | To_group_proxy of int
  | Resolution_via of int  (** falling back to the resolution DB's owner *)
  | Shortcut_divert  (** to-destination shortcutting replaced the labels *)
  | Address_rewrite  (** a directory/landmark wrote the explicit route *)
  | Label_hop  (** consumed one explicit-route label *)
  | Hop of int  (** plain forward, header unchanged *)
  | Greedy_commit of int  (** committed to a closer anchor (VRR) or
                              re-entered greedy mode (BVR) *)
  | Fallback_descent  (** BVR: entered fallback, descending the beacon tree *)

val reason_to_string : reason -> string
val action_to_string : action -> string

type decision =
  | Forward of int  (** send to this neighbor, header unchanged *)
  | Rewrite of header * int * action
      (** rewrite the header and send to this neighbor; the action says
          why, for the trace *)
  | Deliver
  | Drop of reason

(** {2 The label leg}

    Every scheme delivers along explicit routes the same way (§4.2's
    forwarding labels): a {!Carry} header whose labels are the route after
    the current node, one label consumed per hop.  Schemes build their
    label legs from these three and keep only their own [action]. *)

val carry_header : dst:int -> int list -> header
(** [carry_header ~dst path]: a {!Carry} header riding [path] (source
    first), i.e. labels [List.tl path]; no labels for [[]] or [[src]]. *)

val carry_along : header -> int list -> action -> decision
(** [carry_along h path why]: switch [h] to {!Carry} along [path] (current
    node first), clear the waypoint and send it to [path]'s second node,
    logging [why]; [Drop No_route] when [path] has fewer than two nodes. *)

val label_hop : header -> decision
(** Consume the next label ([Label_hop]); [Drop No_route] when none is
    left. *)

type step = { at : int; action : action }

type trace = {
  path : int list;  (** nodes traversed, source first *)
  steps : step list;  (** one per decision, in order *)
  delivered : bool;
  dropped : reason option;  (** why the walk ended, when not delivered *)
  hops : int;  (** [List.length path - 1] *)
  rewrites : int;  (** header rewrites along the way *)
  header_bytes_max : int;  (** largest header carried on any hop *)
  header_bytes_total : int;  (** header bytes summed over every hop taken *)
}

val byte_size : Graph.t -> at:int -> header -> int
(** Wire size of the header as carried at node [at]: the destination's
    self-certifying name (20 bytes), the packed
    neighbor-rank label bits of the remaining explicit route (§4.2), one
    node id each for waypoint and anchor when present, 4 bytes for a
    finite fallback bound, and the scheme's [extra_bytes]. *)

val walk :
  ?ttl:int ->
  Graph.t ->
  forward:(header -> at:int -> decision) ->
  src:int ->
  header ->
  trace
(** Execute [forward] hop by hop from [src] until it delivers, drops, the
    TTL (default [4 * n] decisions) expires, or the exact (node, header)
    state recurs — node revisits alone are legal (a Disco proxy leg may
    re-cross a node), but revisiting with an identical header can never
    make progress under a deterministic forward function.  The loop key
    is that typed state: the walk keeps, per node, the headers already
    seen there and compares every field ([dst], phase including
    [tried_proxy], labels, waypoint, anchor, both bounds, [extra_bytes]),
    building no string per hop. *)

val pp_trace : Format.formatter -> trace -> unit

(** {1 The zero-alloc fast path}

    The batched counterpart of {!walk}: headers pre-encoded into reusable
    [Bytes], in-flight state in one preallocated {!packet}, and per-scheme
    {e compiled forwards} ({!fast_plan}) whose hop loop is array indexing
    only.  {!walk} stays the oracle; disco-check's fast≡typed differential
    holds both walkers to the same hop sequence and verdict, and the L7
    lint plus [bench --figure alloc] hold this path to zero allocation
    per hop. *)

(** {2 Phase codes} — {!phase} as a small int on the wire. *)

val mode_seek : int
val mode_seek_tried : int
val mode_steer : int
val mode_steer_tried : int
val mode_carry : int
val mode_greedy : int
val mode_fallback : int
val mode_of_phase : phase -> int

(** {2 Verdicts} — a compiled forward returns the next hop ([>= 0]) or: *)

val fast_deliver : int
val fast_no_route : int
val fast_protocol : int

(** {2 Drop codes} — why a fast walk ended ({!field-pdrop}). *)

val drop_none : int
val drop_ttl : int
val drop_no_route : int
val drop_protocol : int
val drop_to_string : int -> string

(** The reusable in-flight packet.  [proute.(proute_pos..proute_end)] is
    the remaining explicit route as node ids; [pfs] is float scratch for
    the compiled forwards with the BVR fallback bound at {!fs_fbound};
    [pis] is int scratch; the VRR virtual bound is carried as two unsigned
    32-bit halves ([pvb_hi], [pvb_lo]) so the hop loop never boxes an
    Int64.  After a {!fast_walk}: [phops], [pdelivered], [pdrop]. *)
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

val fs_fbound : int
(** [pfs] slot holding the BVR fallback re-entry bound. *)

val packet_create : Graph.t -> packet
(** A scratch packet sized for [g] (route capacity [2n + 8]). *)

(** {2 Route-window helpers} (hot; used by the compiled forwards) *)

val route_len : packet -> int
val route_next : packet -> int
(** Consume and return the next route label (node id). *)

val fast_carry : packet -> int
(** {!carry_along}'s fast twin over a route window the caller has just
    filled: switch to {!mode_carry}, clear the waypoint, and take the next
    label. *)

val fast_label_hop : packet -> int
(** {!label_hop}'s fast twin: the next label, or {!fast_no_route} when
    the window is empty. *)

val route_fill_up : packet -> int array -> int -> int -> int
(** [route_fill_up pkt parents u root]: load the labels of the tree path
    [u ~> root] ([parents] pointing rootward), i.e.
    [parents.(u); ...; root].  Returns the label count, or -1 on a broken
    parent chain (route window untouched). *)

val route_chain_ok : int array -> int -> int -> bool
(** [route_chain_ok parents u root]: does the parent chain from [u] reach
    [root]?  Probe before a fill that would replace a live route — the
    fills scribble over [proute] as they walk. *)

val route_fill_down : packet -> int array -> int -> int -> int
(** [route_fill_down pkt parents root v]: load the labels of the descent
    [root ~> v], i.e. [child-of-root; ...; v].  Returns the label count,
    or -1 on a broken chain. *)

(** {2 Wire codec} — fixed 33-byte header, then the explicit route as
    packed neighbor-rank bits (the same §4.2 label accounting as
    {!byte_size}).  Encoding is setup-time and may allocate;
    {!decode_into} is the per-flow hot entry and is allocation-free. *)

val header_fixed_bytes : int

val encoded_size : Graph.t -> src:int -> header -> int
(** Bytes {!encode_header} will write for [h] emitted at [src]. *)

val encode_header : Graph.t -> src:int -> header -> Bytes.t -> pos:int -> int
(** Encode [h] at [buf.(pos..)]; returns the encoded size.
    @raise Invalid_argument on overflow or a label that is not a neighbor
    of the node consuming it. *)

val decode_into : Graph.t -> packet -> Bytes.t -> pos:int -> src:int -> unit
(** Rehydrate [pkt] from wire bytes (allocation-free); [src] resolves the
    neighbor-rank labels back to node ids and the walk counters reset. *)

val load_packet : packet -> header -> unit
(** Load [pkt] straight from a typed header, skipping the wire. *)

val float_of_bits_hl : int -> int -> float
(** Exact IEEE-754 double from two unsigned 32-bit halves, without boxing
    an Int64 (exposed for the codec tests). *)

(** {2 The walker} *)

(** A scheme's compiled face: [fstep pkt u] is the zero-alloc per-hop
    decision; [fprime ~src ~dst] forces lazily-built node state for a
    flow at setup time so the hop loop never fills a cache. *)
type fast_plan = {
  fstep : packet -> int -> int;
  fprime : src:int -> dst:int -> unit;
}

val fast_walk :
  Graph.t ->
  step:(packet -> int -> int) ->
  packet ->
  src:int ->
  ttl:int ->
  trail:int array ->
  unit
(** Route one decoded packet from [src] under {!walk}'s contract (TTL
    counts decisions; hops must be real links; Deliver away from the
    destination is a protocol error; at [src = dst] the scheme decides
    once).  No loop detection: an in-place cycle runs to TTL, which the
    typed oracle reports as [Loop_detected] — the same non-delivery
    verdict.  [trail] needs [ttl + 1] slots; [trail.(0..phops)] is the
    hop sequence.  Results land in [pkt]: [pdelivered], [pdrop],
    [phops]. *)
