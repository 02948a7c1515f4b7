(* Inline suppression for disco-lint.

   A comment of the form

     (* disco-lint: allow L2 *)
     (* disco-lint: allow L1 L5 seeding happens once at startup *)

   waives the listed rules on the comment's own line and on the line
   directly below it, so it works both as a trailing comment and as a
   standalone line above the flagged expression.  Rule ids are an upper-case
   letter followed by digits; anything after the id list is free-form
   justification text.  Only real comments count: the source is lexed, so
   the marker inside a string literal (a rule's hint, say) waives nothing. *)

type t = (string * int, unit) Hashtbl.t

let marker = "disco-lint:"

let is_token_char c =
  (c >= 'A' && c <= 'Z')
  || (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || Char.equal c '_'

let is_rule_id s =
  String.length s >= 2
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (String.length s - 1))

(* Index of [sub] in [s], if any. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

(* Maximal runs of token characters, left to right. *)
let tokenize s =
  let out = ref [] and buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if is_token_char c then Buffer.add_char buf c else flush ()) s;
  flush ();
  List.rev !out

let rec take_rule_ids = function
  | id :: rest when is_rule_id id -> id :: take_rule_ids rest
  | _ -> []

(* Every comment of [source] with the line it starts on (docstrings
   included).  A source the lexer rejects keeps the comments read before
   the error; its parse error is reported anyway. *)
let comments source =
  let lexbuf = Lexing.from_string source in
  Lexer.init ();
  let rec drain () =
    match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
  in
  (try drain () with Lexer.Error _ -> ());
  List.map
    (fun (text, (loc : Location.t)) -> (text, loc.loc_start.pos_lnum))
    (Lexer.comments ())

let scan source : t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (text, first) ->
      List.iteri
        (fun i line ->
          let lineno = first + i in
          match find_sub line marker with
          | None -> ()
          | Some at -> (
              let start = at + String.length marker in
              let rest = String.sub line start (String.length line - start) in
              match tokenize rest with
              | "allow" :: tokens ->
                  List.iter
                    (fun id ->
                      Hashtbl.replace tbl (id, lineno) ();
                      Hashtbl.replace tbl (id, lineno + 1) ())
                    (take_rule_ids tokens)
              | _ -> ()))
        (String.split_on_char '\n' text))
    (comments source);
  tbl

let allows (t : t) ~rule ~line = Hashtbl.mem t (rule, line)
