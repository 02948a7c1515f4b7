(** Flat, location-independent node names (§2, §4.1).

    A name is an arbitrary bit string — a DNS name, MAC address, or
    self-certifying identifier. The protocol never interprets names except
    by hashing them. Simulations assign each graph node a default name, but
    any string works (the test suite exercises arbitrary names). *)

type t = string

val default : int -> t
(** The simulator's default flat name for graph node [i] ("node:<i>"); the
    mapping carries no topological information — hashes are what matter. *)

val default_array : int -> t array

val hash : t -> Disco_hash.Hash_space.id
(** Position in hash space: first 64 bits of SHA-256(name). *)

val hash_array : t array -> Disco_hash.Hash_space.id array
