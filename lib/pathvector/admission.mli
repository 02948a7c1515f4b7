(** One node's route table under §4.2's k-closest rule, shared by
    {!Pathvector} and [Disco_dynamic.Network]. It keeps the exact count of
    its counted routes (not to a landmark, not the node's own entry) and
    an upper bound on their largest distance, so a decision reads two
    fields and scans the table only when it may evict. *)

type 'r t = private {
  routes : (int, 'r) Hashtbl.t;  (** read freely; write only through the functions below *)
  counted : int -> 'r -> bool;
  dist : 'r -> float;
  mutable count : int;  (** routes [counted] selects *)
  mutable bound : float;  (** >= the largest counted distance *)
}

val create : counted:(int -> 'r -> bool) -> dist:('r -> float) -> int -> 'r t
(** An empty table of [Hashtbl.create]'s initial size. *)

val replace : 'r t -> int -> 'r -> unit
val remove : 'r t -> int -> unit

val reset : 'r t -> unit
(** Empty the table and shrink it to its initial size, as [Hashtbl.reset]. *)

val admit : 'r t -> k:int -> dist:float -> bool
(** Whether a counted route of length [dist] to a destination the table
    lacks may enter: yes while fewer than [k] routes are counted; no when
    [dist >= bound]; otherwise one scan finds the first farthest counted
    route in [Hashtbl.iter] order, tightens the bound to its distance,
    and evicts it (yes) only when [dist] is shorter. *)
