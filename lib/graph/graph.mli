(** Weighted undirected graphs in compressed sparse row form.

    The network substrate all protocols run over (§4.1 of the paper: an
    undirected connected network with arbitrary structure and link
    distances). Nodes are dense ints [0 .. n-1]; an edge carries a strictly
    positive weight (link latency/cost). Graphs are built once with
    {!Builder} and then immutable, so routing-table construction can share
    them freely.

    Neighbor lists are sorted by node id. The position of a neighbor within
    the list is the {e forwarding label} used by compact source routes
    (§4.2): a packet at a degree-[d] node selects its next hop with
    [ceil(log2 d)] bits. *)

type t

module Builder : sig
  type graph := t
  type t

  val create : int -> t
  (** [create n] starts a graph with [n] nodes and no edges. *)

  val add_edge : t -> int -> int -> float -> unit
  (** [add_edge b u v w] adds an undirected edge. Self-loops are rejected;
      a duplicate edge keeps the smaller weight. Weight must be > 0. *)

  val has_edge : t -> int -> int -> bool
  val build : t -> graph
end

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int

val neighbors : t -> int -> (int * float) list
(** Neighbors with edge weights, ascending by node id. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** Allocation-free iteration over [u]'s neighbors. *)

val csr : t -> int array * int array * float array
(** [csr g] is [(row, col, wgt)], the graph's own arrays, not copies:
    [u]'s neighbors are [col.(i)] at weight [wgt.(i)] for [i] from
    [row.(u)] to [row.(u + 1) - 1], ascending by id. For loops that relax
    every edge, where {!iter_neighbors}'s closure call boxes each weight.
    Read-only: writing to them corrupts the graph. *)

val neighbor_at : t -> int -> int -> int
(** [neighbor_at g u i] is the node reached by forwarding label [i] at
    [u] — {!nth_neighbor} without the weight, the bounds check or the
    tuple. The fast path's label decoder runs this per hop, so it is
    allocation-free (lint L7); the caller owns the range check. *)

val nth_neighbor : t -> int -> int -> int * float
(** [nth_neighbor g u i] is the [i]-th neighbor (the node reached by
    forwarding label [i] at [u]).
    @raise Invalid_argument if [i >= degree g u]. *)

val has_edge : t -> int -> int -> bool
(** [has_edge g u v] iff [u]–[v] is an edge (binary search; O(log d)).
    Allocation-free, unlike {!edge_weight}: the hop loop's link check
    must not touch the minor heap (lint L7). *)

val neighbor_rank : t -> int -> int -> int option
(** [neighbor_rank g u v] is the forwarding label at [u] that leads to [v],
    if [u]–[v] is an edge (binary search; O(log d)). *)

val edge_weight : t -> int -> int -> float option

val edge_index : t -> int -> int -> int option
(** Dense id in [0, 2m) of the directed arc [u -> v]; arcs [u->v] and
    [v->u] have distinct ids. Used by congestion counters. *)

val edges : t -> (int * int * float) list
(** Each undirected edge once, with [u < v]. *)

val is_connected : t -> bool

val max_degree : t -> int
