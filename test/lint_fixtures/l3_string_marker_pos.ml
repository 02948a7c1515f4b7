(* L3 positive: the waiver marker below sits in a string literal, not in a
   comment, so it waives nothing and the catch-all on its line is reported. *)
let safe f = try f () with _ -> String.length "(* disco-lint: allow L3 reason *)"
