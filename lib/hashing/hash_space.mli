(** Arithmetic on the circular hash space of node identifiers.

    Disco places each node at [h(name)], a point on a circular hash space
    (§4.4). Sloppy groups are prefixes of the hash; the dissemination
    overlay orders group members circularly; fingers are drawn with
    probability inversely proportional to hash distance. We represent a
    position as the first 64 bits of SHA-256(name), treated as an unsigned
    64-bit integer. *)

type id = int64
(** Unsigned 64-bit position in hash space. *)

val of_name : string -> id
(** First 8 bytes of SHA-256(name), big-endian. *)

val compare_unsigned : id -> id -> int
(** Order on the hash space as unsigned integers. *)

val prefix_bits : id -> width:int -> int
(** [prefix_bits h ~width] is the top [width] bits as an int
    (requires [0 <= width <= 30]); identifies [h]'s sloppy group when
    [width = k]. *)

val clz : int -> int
(** Leading zeros of [x] as a 32-bit word (0..32; 32 for 0). Requires
    [0 <= x < 2^32]. *)

val common_prefix_len : id -> id -> int
(** Length of the longest common leading bit prefix (0..64). *)

val ring_distance : id -> id -> id
(** Circular distance min(|a-b|, 2^64-|a-b|) as an unsigned value. *)

val to_hex : id -> string

val group_size_bits : n_estimate:int -> int
(** The sloppy-group prefix width [k = floor(log2 (sqrt (n / ln n)))],
    clamped to >= 0. §4.4 and Theorem 2 give two inconsistent formulas up
    to O(1); this is the variant consistent with the paper's measured
    group state (see EXPERIMENTS.md). Groups contain ~sqrt(n ln n) nodes. *)
