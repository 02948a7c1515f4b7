(** A fixed-size domain pool: the one place in the tree allowed to touch
    [Domain]/[Mutex]/[Condition] (disco-lint rule L6).

    The pool exists so the experiment engine can fan measurement tasks out
    over cores without giving up bit-reproducibility: {!run} preserves
    index order, propagates the lowest-index exception, and makes no
    scheduling decision observable to the caller. Determinism therefore
    reduces to the caller's task bodies being independent — which the
    engine guarantees by giving each task private accumulators and a
    derived RNG stream (see DESIGN.md §5d).

    No dependency beyond the stdlib: workers are [Domain.spawn]ed threads
    draining a [Mutex]/[Condition]-protected queue of thunks. *)

type t
(** A pool of worker domains. A pool with [jobs = 1] spawns no domains and
    runs every task inline, so single-job runs are exactly the sequential
    code path. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val resolve_jobs : int -> int
(** Normalize a [--jobs] request: values [<= 0] mean "auto" (one worker
    per recommended domain); anything else is taken as given, clamped to
    at least 1. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs - 1] worker domains (the calling
    domain also executes tasks during {!run}, so [jobs] is the total
    parallelism). *)

val jobs : t -> int
(** The parallelism this pool was created with. *)

val run : t -> 'a array -> ('a -> 'b) -> 'b array
(** [run t input f] applies [f] to every element and returns the results
    in index order, regardless of which domain computed what. All tasks
    are attempted even if one raises; afterwards the exception raised by
    the lowest failing index is re-raised in the caller, so failure
    reporting does not depend on scheduling. Not reentrant: [f] must not
    itself call {!run} on the same pool. With [jobs t = 1] (or fewer than
    two tasks) this is an ordinary sequential loop. *)

val shutdown : t -> unit
(** Join the workers. Idempotent; the pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'b) -> 'b
(** [create], apply, and [shutdown] (also on exception). *)

(** A mutex-protected lazy memo table — the one shared-mutable-state
    helper task bodies may use (anything built on raw [Mutex]/[Atomic]
    outside this module is banned by lint L6).

    The compute function passed to {!find_or_add} MUST be a deterministic
    function of the key: when two domains miss on the same key
    concurrently, both compute and the first insertion wins, so results
    stay independent of scheduling only because the loser's value is
    equal. The lock is never held while computing, so a slow fill cannot
    stall readers of other keys.

    Each fill runs on a scratch value the memo lends it (a Dijkstra
    workspace, for every memo in the tree). A scratch value must carry
    nothing from one fill to the next that changes the result: the value
    a fill computes may depend on its key only, never on which fills ran
    on the same scratch before it. Dijkstra workspaces meet this because
    each run starts a new stamp, which resets every slot it reads. *)
module Memo : sig
  type ('k, 'v, 's) t
  (** Keys ['k], cached values ['v], scratch values ['s]. *)

  val create : ?size:int -> scratch:(unit -> 's) -> unit -> ('k, 'v, 's) t
  (** [create ~scratch ()] is an empty memo whose fills run on values
      made by [scratch]. Nothing is made until the first miss. It keeps
      every value it is given. *)

  val bounded : capacity:int -> scratch:(unit -> 's) -> unit -> ('k, 'v, 's) t
  (** Like {!create}, but the memo holds at most [capacity] values: a fill
      that finds it full first drops the least recently used value (a fill
      and a hit each count as a use). A dropped key is filled again on its
      next miss, so a bounded memo trades recomputation for memory; with a
      deterministic [compute] the values it returns are the same either
      way. @raise Invalid_argument if [capacity < 1]. *)

  val find_or_add : ('k, 'v, 's) t -> 'k -> ('s -> 'v) -> 'v
  (** [find_or_add t k compute] returns the cached value for [k], filling
      it with [compute s] on a miss. A hit takes no scratch. On a miss the
      fill borrows a free scratch value [s], and makes a new one only when
      all are lent out: at most one per domain filling concurrently, and
      exactly one when all fills run on one domain. [s] goes back to the
      memo when [compute] returns or raises; a raising fill caches
      nothing. [compute] may be called more than once across domains for
      the same key (first insert wins); it is called without the table
      lock held. *)

  val length : ('k, 'v, 's) t -> int
  (** Number of keys cached now. *)
end
