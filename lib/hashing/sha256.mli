(** SHA-256 (FIPS 180-4), implemented from scratch.

    The paper hashes flat names with "a well-known hash function h(v)
    (e.g., SHA-2)" (§4.4) to place nodes in hash space for sloppy groups,
    the name-resolution database, and the dissemination overlay. This is a
    self-contained pure-OCaml implementation, validated against the FIPS
    test vectors in the test suite. *)

val digest : string -> string
(** [digest msg] is the 32-byte (raw, not hex) SHA-256 digest of [msg]. *)
