(** The fixed-width address variant sketched in §4.2 (and rejected there).

    "The explicit route could be eliminated. Briefly, an address would be
    fixed at O(log n) bits; each landmark l would dynamically partition
    this block of addresses among its neighbors in proportion to their
    number of descendants, and this would continue recursively down the
    shortest-path tree rooted at l, analogous to a hierarchical assignment
    of IP addresses. Since this would complicate the protocol and actually
    increase the mean address size in practice, we chose the simpler
    explicit route design."

    This module implements that rejected design so the claim can be
    measured (the [addr] experiment compares both): every node in a
    landmark's shortest-path tree receives a label from a contiguous block,
    blocks nest along the tree, and forwarding at each hop picks the child
    whose block contains the target label. Addresses are exactly
    [ceil(log2 n)] bits regardless of route length. *)

type t

val build : Disco_graph.Graph.t -> Landmarks.t -> t
(** Allocate labels over the landmark forest. *)

val bits : t -> int
(** Fixed address width: [ceil(log2 n)]. *)

val label_of : t -> int -> int
(** The label allocated to a node (unique within its landmark's tree). *)

val route : t -> int -> int list
(** [route t v] replays forwarding from [l_v] by label containment and
    returns the node path [l_v; ...; v] — it must equal the forest path
    (tested), demonstrating the scheme routes correctly. *)

val byte_size : name_bytes:int -> t -> int
(** Wire size of one address: landmark name + fixed label. *)
