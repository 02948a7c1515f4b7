(* The one JSON writer and reader behind every artefact the repo emits:
   bench figures, BENCH_*.json snapshots, disco-check reports and
   disco-lint summaries.  [to_string] prints one fixed layout; [parse] is
   a structural recursive-descent reader, so the gates that read files
   back (alloc baseline, scaling checkpoints) stay correct when members
   are reordered or reformatted. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writer ----------------------------------------------------------- *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shortest of %.15g/%.16g/%.17g that reads back as [f] (%.17g always
   does).  An integral rendering gains ".0" so it parses back as [Num]. *)
let float_repr f =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits >= 17 || Float.equal (float_of_string s) f then s else go (digits + 1)
  in
  let s = go 15 in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f -> Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | Str s -> add_quoted b s
  | Arr [] -> Buffer.add_string b "[]"
  | Arr vs ->
      (* One element per line: a BENCH file stays one row per line. *)
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          Buffer.add_string b (if i = 0 then "\n" else ",\n");
          write b v)
        vs;
      Buffer.add_string b "\n]"
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_quoted b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- reader ----------------------------------------------------------- *)

exception Fail of string

let fail pos msg = raise (Fail (Printf.sprintf "at byte %d: %s" pos msg))

(* The cursor is a plain int ref over the input string; every parse_*
   function leaves it on the first byte after the value it consumed. *)

let skip_ws s pos =
  let n = String.length s in
  while
    !pos < n
    && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr pos
  done

let expect s pos c =
  if !pos >= String.length s || s.[!pos] <> c then
    fail !pos (Printf.sprintf "expected %C" c);
  incr pos

let parse_literal s pos word value =
  let m = String.length word in
  if !pos + m <= String.length s && String.sub s !pos m = word then begin
    pos := !pos + m;
    value
  end
  else fail !pos (Printf.sprintf "expected %s" word)

let parse_string s pos =
  expect s pos '"';
  let b = Buffer.create 16 in
  let n = String.length s in
  let rec go () =
    if !pos >= n then fail !pos "unterminated string"
    else
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= n then fail !pos "unterminated escape";
          (match s.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 5 >= n then fail !pos "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
                | Some c -> c
                | None -> fail !pos "bad \\u escape"
              in
              (* Enough Unicode for our own files: BMP code points as
                 UTF-8, no surrogate-pair handling. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
  in
  go ();
  Buffer.contents b

(* A literal with no '.' or exponent is an [Int]; one beyond the int
   range falls back to [Num]. *)
let parse_number s pos =
  let start = !pos in
  let n = String.length s in
  let integral = ref true in
  while
    !pos < n
    && match s.[!pos] with
       | '0' .. '9' | '-' | '+' -> true
       | '.' | 'e' | 'E' ->
           integral := false;
           true
       | _ -> false
  do
    incr pos
  done;
  let lit = String.sub s start (!pos - start) in
  match (if !integral then int_of_string_opt lit else None) with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Num f
      | None -> fail start "bad number")

let rec parse_value s pos =
  skip_ws s pos;
  if !pos >= String.length s then fail !pos "unexpected end of input"
  else
    match s.[!pos] with
    | '{' -> parse_obj s pos
    | '[' -> parse_arr s pos
    | '"' -> Str (parse_string s pos)
    | 't' -> parse_literal s pos "true" (Bool true)
    | 'f' -> parse_literal s pos "false" (Bool false)
    | 'n' -> parse_literal s pos "null" Null
    | '-' | '0' .. '9' -> parse_number s pos
    | c -> fail !pos (Printf.sprintf "unexpected %C" c)

and parse_obj s pos =
  expect s pos '{';
  skip_ws s pos;
  if !pos < String.length s && s.[!pos] = '}' then begin
    incr pos;
    Obj []
  end
  else
    let rec members acc =
      skip_ws s pos;
      let key = parse_string s pos in
      skip_ws s pos;
      expect s pos ':';
      let v = parse_value s pos in
      skip_ws s pos;
      if !pos < String.length s && s.[!pos] = ',' then begin
        incr pos;
        members ((key, v) :: acc)
      end
      else begin
        expect s pos '}';
        Obj (List.rev ((key, v) :: acc))
      end
    in
    members []

and parse_arr s pos =
  expect s pos '[';
  skip_ws s pos;
  if !pos < String.length s && s.[!pos] = ']' then begin
    incr pos;
    Arr []
  end
  else
    let rec elements acc =
      let v = parse_value s pos in
      skip_ws s pos;
      if !pos < String.length s && s.[!pos] = ',' then begin
        incr pos;
        elements (v :: acc)
      end
      else begin
        expect s pos ']';
        Arr (List.rev (v :: acc))
      end
    in
    elements []

let parse s =
  let pos = ref 0 in
  match parse_value s pos with
  | v ->
      skip_ws s pos;
      if !pos <> String.length s then
        Error (Printf.sprintf "at byte %d: trailing garbage" !pos)
      else Ok v
  | exception Fail msg -> Error msg

let of_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      parse s

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let float_member key v =
  match member key v with
  | Some (Num f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let int_member key v = match member key v with Some (Int i) -> Some i | _ -> None
let string_member key v = match member key v with Some (Str s) -> Some s | _ -> None
let list_member key v = match member key v with Some (Arr l) -> l | _ -> []
