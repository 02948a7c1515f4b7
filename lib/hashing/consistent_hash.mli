(** Consistent hashing over a set of owner nodes.

    Disco runs a consistent-hashing name-resolution database over the
    globally-known set of landmarks (§4.3): the landmark owning key
    [h(name)] stores that node's current address. Theorem 2 notes that
    using multiple hash functions (virtual nodes) reduces the load
    imbalance from O(log n) to O(1); [replicas] controls that. *)

type t

val create : ?replicas:int -> owners:int array -> owner_name:(int -> string) -> unit -> t
(** [create ~owners ~owner_name ()] builds a ring over [owners] (arbitrary
    int ids, e.g. landmark node ids). [owner_name] gives the stable string
    hashed to position each owner; [replicas] virtual points are placed per
    owner (default 1, the paper's "simplest form"). *)

val owner_of : t -> Hash_space.id -> int
(** The owner whose ring point is the successor of the key: the first
    point at or after it in (position, owner id) order, wrapping past the
    last point. *)

val owner_among : t -> Hash_space.id -> member:(int -> bool) -> int option
(** [owner_among t key ~member] is what {!owner_of} returns on a ring
    built with the same names and replicas from the owners [member]
    admits, or [None] when it admits none. Their points are a subsequence
    of [t]'s in the same order, so the answer is the first admitted point
    from [key]'s successor on, wrapping: one binary search, then [member]
    on each point passed over. *)

val owner_of_name : t -> string -> int
(** [owner_of t (Hash_space.of_name name)]. *)

val is_empty : t -> bool

val byte_size : t -> int
(** Exact bytes of the packed ring-point arrays (positions + owners). *)
