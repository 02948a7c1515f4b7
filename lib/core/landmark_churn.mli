(** Landmark-set maintenance under a changing network size (§4.2).

    "Since n can change, nodes will dynamically become, or cease to be,
    landmarks. To minimize churn in the set of landmarks, a node v only
    flips its landmark status if n has changed by at least a factor 2
    since the last time v changed its status. This amortizes the cost of
    landmark churn over the cost of a large number (Omega(n)) of node
    joins or leaves."

    This module simulates that rule (against the naive re-draw-every-update
    policy) so the amortization claim can be measured: see the [churn]
    experiment. *)

val redraw_due : ref_n:int -> n:int -> bool
(** The hysteresis rule: a node whose status was last drawn at size
    [ref_n] re-draws at size [n] iff n moved by a factor of at least 2
    either way. {!observe} and [Disco_dynamic.Network.set_estimate] both
    decide by it. *)

type t

val create :
  rng:Disco_util.Rng.t -> params:Params.t -> hysteresis:bool -> n0:int -> t
(** A population of [n0] nodes with freshly drawn landmark status.
    [hysteresis = false] gives the naive policy (every estimate update
    re-draws every node's coin). *)

val observe : t -> n:int -> int
(** Feed a new network-size estimate to every node; returns how many nodes
    flipped landmark status at this step. With hysteresis a node re-draws
    only when n moved by >= 2x since its own last re-draw. Node
    populations are resized implicitly: [n] is the new size. *)

val landmark_count : t -> int
(** Current landmarks among the current population. *)

val total_flips : t -> int
(** Cumulative status changes since creation. *)

val population : t -> int
