(** Packed, flat per-node routing state.

    Mirrors what [Disco_graph.Graph] does for adjacency: every table that
    used to live in boxed hashtables or lists is stored as a handful of
    int arrays / Bigarray slabs, so a million-node build fits in RAM and
    both the typed [forward] faces and the compiled [Dataplane.fast_plan]
    read the same memory. Byte accounting is exact: each structure knows
    the size of its slabs, so [ROUTER.state_bytes] reports real storage
    rather than [Obj]-guesswork. *)

(** Growable int array; build-time staging before freezing into a {!Csr}. *)
module Grow : sig
  type t

  val create : ?capacity:int -> unit -> t
  val len : t -> int
  val push : t -> int -> unit
  val to_array : t -> int array
end

(** Compressed sparse rows: [n] variable-length int rows in two flat
    arrays, exactly the [row]/[col] layout [Disco_graph.Graph] uses. *)
module Csr : sig
  type t = private { off : int array; data : int array }

  val of_rows : int array array -> t

  val of_fn : n:int -> row_len:(int -> int) -> fill:(int -> int array -> int -> unit) -> t
  (** [of_fn ~n ~row_len ~fill] sizes the offsets from [row_len] and then
      calls [fill i data off] for each row to write [row_len i] ints at
      [data.(off)..]; avoids materialising intermediate row arrays. *)

  val of_parts : off:int array -> data:int array -> t
  (** Adopt already-packed offsets and data (no copy). [off] must be
      monotone with [off.(0) = 0] and end at [Array.length data]. *)

  val rows : t -> int
  val row_len : t -> int -> int
  val row_off : t -> int -> int
  val get : t -> int -> int -> int
  val iter_row : t -> int -> (int -> unit) -> unit
  val sub_row : t -> int -> int array
  (** Fresh copy of row [i]; boxed-face convenience, not for hot paths. *)

  val find_sorted : t -> int -> int -> int
  (** [find_sorted t i x] is the index of [x] within row [i] (which must be
      sorted ascending), or [-1]. Binary search; allocation-free. *)
end

(** Flat [float] slab backed by a float64 [Bigarray]; reads are unboxed. *)
module Fslab : sig
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> init:float -> t
  val set : t -> int -> float -> unit
end

(** Fixed-width bit-packed int vector (width 1..30); the value slabs of
    the {!Othello} maps. Values are packed [62 / width] per word so reads
    never cross a word boundary. *)
module Bitvec : sig
  type t

  val create : width:int -> len:int -> t
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val byte_size : t -> int
end

(** Othello hashing (Yu et al., CoNEXT'17-style minimal perfect mapping):
    a key's value is [A.(h_a key) lxor B.(h_b key)] over two bit-packed
    slabs of ~1.33n slots each. Lookup is two array probes and an xor —
    allocation-free — at a few bits per key. The build peels the bipartite
    key graph (degree-1 elimination with the xor trick); a cyclic draw
    rebuilds with the next seed. Keys are (hi, lo) unsigned 31-bit halves
    of the 64-bit name hashes from [Disco_hash.Hash_space].

    Querying a key that was not in the build returns an arbitrary
    in-range value — callers only probe live names (the FIB invariant),
    exactly as in the Othello paper's forwarding setting. *)
module Othello : sig
  type t

  val build : hi:int array -> lo:int array -> values:int array -> t
  (** Raises [Invalid_argument] on duplicate (hi, lo) keys: a duplicated
      key is a 2-cycle in the bipartite graph and can never peel. *)

  val query : t -> hi:int -> lo:int -> int

  val seed : t -> int
  (** Final seed; > 0 iff at least one cyclic draw forced a rebuild. *)

  val byte_size : t -> int
end

(** Fenwick (binary indexed) tree over unit counts: O(log n) insert and
    k-th-member select, the index structure behind VRR's incremental
    virtual ring. *)
module Fenwick : sig
  type t

  val create : int -> t
  val add : t -> int -> int -> unit
  val prefix : t -> int -> int
  (** [prefix t i] is the sum of counts at indices < [i]. *)

  val total : t -> int

  val kth : t -> int -> int
  (** [kth t k] is the index holding the (k+1)-th unit (0-based rank);
      counts must be 0/1 for rank semantics. Raises [Invalid_argument]
      when [k < 0 || k >= total t]. *)
end

val split64 : int64 -> int * int
(** (hi, lo) unsigned 32-bit halves of a hash id, as nonnegative ints —
    the boxing-free representation used on fast paths and Othello keys. *)
