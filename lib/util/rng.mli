(** Deterministic pseudo-random number generation.

    Every experiment in this repository is seeded explicitly so results are
    reproducible bit-for-bit. The generator is SplitMix64 (Steele et al.),
    which passes BigCrush, is trivially splittable, and needs no external
    dependency. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. Use to give
    each node or each experiment phase its own stream. *)

val derive : int -> int -> int
(** [derive seed i] is a well-mixed 62-bit child seed, so a run seed can
    fan out into per-case seeds ([derive seed 0], [derive seed 1], ...)
    whose streams are independent — unlike arithmetic on raw seeds, which
    SplitMix64 would partially correlate. Always non-negative. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct ints from
    [0, n). Requires [k <= n]. Output order is unspecified. *)
