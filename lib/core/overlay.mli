(** The address-dissemination overlay (§4.4).

    Within each sloppy group, members form a Symphony-like small world:
    every node connects to its successor and predecessor in hash order,
    plus a few long-distance "fingers" drawn with probability inversely
    proportional to hash distance (bootstrapped by querying the resolution
    database for the node closest to a target hash). Address announcements
    flow through this overlay by a directional distance-vector rule —
    received from a higher hash, forwarded only to lower hashes, and vice
    versa — which kills count-to-infinity because hash distance from the
    origin strictly increases.

    {!disseminate} statically simulates one announcement per node and
    reports the Fig-8-style costs: messages, and the in-text §5 metrics
    (mean/max overlay hops an announcement travels, which the paper reports
    as 5.77/24 with 1 finger and 3.04/16 with 3 on a 1,024-node G(n,m)). *)

type t

val build :
  rng:Disco_util.Rng.t -> ?fingers:int -> Nddisco.t -> Groups.t -> t
(** [fingers] defaults to the NDDisco instance's [params.fingers]. *)

val neighbors : t -> int -> int array
(** Overlay neighbors of a node (successor, predecessor, out- and
    in-fingers) — the TCP connections it maintains. *)

val out_fingers : t -> int -> int array
(** The fingers this node chose (it paid the bootstrap queries for them). *)

val degree : t -> int -> int

val mean_degree : t -> float

type dissemination = {
  messages : int;  (** overlay messages for every node to announce once *)
  mean_hops : float;  (** average overlay hops to reach a group member *)
  max_hops : int;
  reached : int;  (** (origin, member) pairs reached *)
  expected : int;  (** (origin, member) pairs that should be reached *)
}

val disseminate : t -> dissemination
(** Simulate the directional flooding of one address announcement from
    every node to its group. *)
