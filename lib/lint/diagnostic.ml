(* A single disco-lint finding, plus rendering to the two output formats.
   This module is pure formatting: all printing happens in bin/disco_lint.ml
   so the library itself obeys rule L4 (no stray output from libraries). *)

module Json = Disco_util.Json

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  hint : string;
}

let severity_label = function Error -> "error" | Warning -> "warning"

let compare_by_position a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_human d =
  Printf.sprintf "%s:%d:%d: %s [%s] %s\n  hint: %s" d.file d.line d.col
    (severity_label d.severity) d.rule d.message d.hint

let to_json d =
  Json.Obj
    [
      ("file", Json.Str d.file);
      ("line", Json.Int d.line);
      ("col", Json.Int d.col);
      ("rule", Json.Str d.rule);
      ("severity", Json.Str (severity_label d.severity));
      ("message", Json.Str d.message);
      ("hint", Json.Str d.hint);
    ]
