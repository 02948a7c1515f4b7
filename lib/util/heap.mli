(** Binary min-heap keyed by float priority.

    Used as the frontier in Dijkstra's algorithm (with lazy deletion: stale
    entries are pushed again and skipped on pop) and as the pending-event
    queue of the discrete event simulator.

    Entries pop in (priority, push order): the lowest priority first, and
    among equal priorities the earliest push first, which keeps
    simulations and shortest-path ties deterministic. Priorities may be
    [infinity]; NaN has no place in that order.

    The heap is three parallel arrays (priorities, push sequence numbers,
    values), so {!pop_min} allocates nothing and {!push} allocates only
    when the arrays double. {!min_prio} reads a flat float array and
    allocates nothing where it is inlined; a call that is not inlined
    (every call from another module under [-opaque], as in dune's dev
    profile) boxes the float it returns, as does any caller passing a
    computed priority to {!push}. A slot the heap stops using is
    overwritten with the filler given to {!create}, so a popped or
    cleared value is garbage once its caller drops it. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty heap. [filler] fills every unused value
    slot and is what {!pop_min} returns on an empty heap. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val min_prio : 'a t -> float
(** The priority {!pop_min} would remove next; [infinity] when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the value of the first entry in (priority, push
    order); the filler when the heap is empty. *)

val clear : 'a t -> unit
(** Drop every entry, overwriting its value slot with the filler. *)
