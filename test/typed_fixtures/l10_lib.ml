(* L10 fixture library: the subject of the reachability walk.  Its roots are
   the two executables in l10_exe_a/ and l10_exe_b/ (both main.ml, so both
   units are Dune__exe__Main), the top-level effect below, the module packed
   as a first-class value, and the definition a waiver keeps. *)

let used x = x + 1

(* positive: nothing reaches it *)
let unused x = x * 2

let only_from_a x = x + 2
let only_from_b x = x + 3

(* positive: the only call omits ?scale, which the typechecker fills with a
   ghost None *)
let omitted ?(scale = 1) x = x * scale

(* negative: the only call passes ?scale:None explicitly *)
let explicit_none ?scale x = match scale with Some s -> x * s | None -> x

module type R = sig
  val run : int -> int
end

let behind_pack x = x - 1

module Impl = struct
  let run x = behind_pack x
end

let registry : (module R) list = [ (module Impl : R) ]

let from_effect x = x * 3
let () = ignore (from_effect 1)

(* The closure below is an L8 task entry, keyed <task@line>; it is never an
   L10 finding. *)
let tally pool xs = Disco_util.Pool.run pool xs (fun x -> x + 1)

let kept_helper x = x + 4

(* disco-lint: allow L10 a fixture waiver: what a kept definition uses is reached *)
let kept x = kept_helper x
