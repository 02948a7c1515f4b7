(* Parse and lint .ml files. Everything here returns data; the bin/ driver
   owns all printing (rule L4 applies to this library too). *)

module Json = Disco_util.Json

type summary = {
  files : int;
  errors : int;
  warnings : int;
  diagnostics : Diagnostic.t list;
}

(* Logical paths use '/' regardless of platform and no leading "./" so the
   rule [applies] predicates and waiver tests see a stable shape. *)
let normalize_path p =
  let p = String.map (fun c -> if Char.equal c '\\' then '/' else c) p in
  if Rules.has_prefix ~prefix:"./" p then String.sub p 2 (String.length p - 2)
  else p

let parse_error ~path ~line ~col message =
  {
    Diagnostic.rule = "P0";
    severity = Diagnostic.Error;
    file = path;
    line;
    col;
    message;
    hint = "disco-lint parses with the toolchain grammar; fix the syntax error";
  }

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      let s = loc.Location.loc_start in
      Error
        (parse_error ~path ~line:s.Lexing.pos_lnum
           ~col:(s.Lexing.pos_cnum - s.Lexing.pos_bol)
           "syntax error")
  | exception exn ->
      Error (parse_error ~path ~line:1 ~col:0 ("cannot parse: " ^ Printexc.to_string exn))

let severity_of ~overrides (rule : Rules.t) =
  match List.assoc_opt rule.Rules.id overrides with
  | Some s -> s
  | None -> rule.Rules.default_severity

let lint_source ?(severity_overrides = []) ~path source =
  let path = normalize_path path in
  match parse ~path source with
  | Error d -> [ d ]
  | Ok ast ->
      let active = List.filter (fun r -> r.Rules.applies path) Rules.catalogue in
      let waivers = Waivers.scan source in
      Rules.check_structure ~active ast
      |> List.filter_map (fun { Rules.rule; loc; message } ->
             let s = loc.Location.loc_start in
             let line = s.Lexing.pos_lnum in
             if Waivers.allows waivers ~rule:rule.Rules.id ~line then None
             else
               Some
                 {
                   Diagnostic.rule = rule.Rules.id;
                   severity = severity_of ~overrides:severity_overrides rule;
                   file = path;
                   line;
                   col = s.Lexing.pos_cnum - s.Lexing.pos_bol;
                   message;
                   hint = rule.Rules.hint;
                 })
      |> List.sort Diagnostic.compare_by_position

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?severity_overrides path =
  lint_source ?severity_overrides ~path (read_file path)

let is_lintable name =
  Filename.check_suffix name ".ml" && not (Filename.check_suffix name ".pp.ml")

let rec walk acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry = 0 || Char.equal entry.[0] '.' then acc
           else if String.equal entry "_build" then acc
           else walk acc (Filename.concat path entry))
         acc
  else if Sys.file_exists path && is_lintable path then path :: acc
  else acc

let collect_ml_files roots =
  List.fold_left walk [] roots |> List.sort String.compare

let is_error d =
  match d.Diagnostic.severity with
  | Diagnostic.Error -> true
  | Diagnostic.Warning -> false

let summarize ~files diagnostics =
  let errors = List.length (List.filter is_error diagnostics) in
  {
    files;
    errors;
    warnings = List.length diagnostics - errors;
    diagnostics;
  }

let lint_files ?severity_overrides paths =
  let diagnostics =
    List.concat_map (fun p -> lint_file ?severity_overrides p) paths
  in
  summarize ~files:(List.length paths) diagnostics

let summary_to_json s =
  Json.to_string
    (Json.Obj
       [
         ("files", Json.Int s.files);
         ("errors", Json.Int s.errors);
         ("warnings", Json.Int s.warnings);
         ("diagnostics", Json.Arr (List.map Diagnostic.to_json s.diagnostics));
       ])
