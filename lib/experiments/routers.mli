(** The built-in {!Protocol.ROUTER} adapters, registered in fig1 order:
    pathvector, seattle, bvr, vrr, s4, nddisco, disco, tz.

    Each adapter is a thin shim over the underlying protocol module; all
    of them build from one {!Testbed.t}, so Disco/NDDisco/S4 share the
    testbed's converged instances (same landmark draw) and BVR/TZ draw
    their extra randomness from dedicated testbed RNG streams. *)

val all : unit -> Protocol.packed list
(** All registered routers, registration order. Use this (not
    {!Protocol.all}) so the built-ins are guaranteed to be loaded. *)

val names : unit -> string list
val find_exn : string -> Protocol.packed
