(** JSON: the one writer and the one reader for every artefact the repo
    emits.

    Everything the program writes as JSON — [bench --json] summaries, the
    committed [BENCH_*.json] snapshots, disco-check reports and disco-lint
    summaries — is built as a {!t} and printed by {!to_string}.  The
    benches also read their snapshots back, to gate a rerun against a
    committed baseline or to resume a scaling sweep from its last
    checkpoint; {!parse} reads them structurally, so the gates stay
    correct when members are reordered or reformatted.

    Numbers come in two kinds: {!Int} prints and reads back exactly (a
    disco-check scenario seed reaches 2{^62}, beyond a double's 53-bit
    mantissa), and {!Num} is a float.  [\u] escapes cover the BMP only
    (no surrogate pairs) — all this repo's files need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** The fixed layout, with no options:
    - an object prints as [{"key":value,...}] with no padding;
    - every array element starts a new line, so a snapshot's rows are
      one per line;
    - an [Int] prints exactly;
    - a finite [Num] prints as the shortest of [%.15g], [%.16g] and
      [%.17g] that reads back equal, always with a [.] or an exponent,
      so it parses back as a [Num]; [nan] and the infinities print as
      [null];
    - strings escape the double quote, the backslash and bytes below
      0x20, and pass every other byte through.

    [parse (to_string v) = Ok v] for every [v] without non-finite
    floats. *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error.  A
    number literal without [.] or exponent is an [Int] (a [Num] if it
    overflows [int]). *)

val of_file : string -> (t, string) result
(** Read and parse a file; I/O errors surface as [Error]. *)

val member : string -> t -> t option
(** First member with that key, if the value is an object. *)

val float_member : string -> t -> float option
(** [member] plus a projection: a [Num], or an [Int] as a float. *)

val int_member : string -> t -> int option
(** An [Int] member only. *)

val string_member : string -> t -> string option

val list_member : string -> t -> t list
(** Like [member] with an [Arr] projection, but defaulting to [[]] —
    iteration sites read naturally. *)
