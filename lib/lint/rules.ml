(* The disco-lint rule catalogue and the Ast_iterator engine that applies it.

   Rules are purely syntactic (untyped Parsetree), which keeps the checker
   fast and dependency-free; where a rule would need types (e.g. "=" on
   non-immediate values) it uses a conservative structural heuristic and
   relies on the inline waiver for the rare false positive.

   Scoping is by repo-relative path with '/' separators, e.g.
   "lib/core/groups.ml"; each rule carries its own [applies] predicate so
   the harness/report layers keep their legitimate printf/clock uses. *)

open Parsetree

type t = {
  id : string;
  title : string;
  default_severity : Diagnostic.severity;
  rationale : string;
  hint : string;
  applies : string -> bool;
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_dirs dirs path = List.exists (fun d -> has_prefix ~prefix:d path) dirs

(* Files allowed to read the wall clock: the telemetry module that wraps it
   and the human-facing report layer. *)
let clock_allowlist = [ "lib/util/telemetry.ml"; "lib/experiments/report.ml" ]

let l1 =
  {
    id = "L1";
    title = "determinism";
    default_severity = Diagnostic.Error;
    rationale =
      "every experiment must be bit-reproducible under a seed; ambient \
       randomness (Stdlib.Random) and wall-clock reads silently break that";
    hint =
      "draw randomness from the seeded SplitMix64 Disco_util.Rng; read the \
       clock only via Disco_util.Telemetry.now_s (telemetry/report allowlist)";
    applies =
      (fun p ->
        in_dirs [ "lib/"; "bin/" ] p
        && not (List.exists (String.equal p) clock_allowlist));
  }

let l2 =
  {
    id = "L2";
    title = "hash-space discipline";
    default_severity = Diagnostic.Error;
    rationale =
      "flat-name ordering is unsigned 64-bit ring arithmetic; OCaml's \
       polymorphic compare/equality/hash order raw representations instead \
       and corrupt successor/owner decisions";
    hint =
      "use the typed comparators: Hash_space.compare_unsigned for ids, \
       Int.compare / Float.compare / String.equal for scalars";
    applies = in_dirs [ "lib/" ];
  }

let l3 =
  {
    id = "L3";
    title = "no swallowed exceptions";
    default_severity = Diagnostic.Error;
    rationale =
      "a catch-all 'with _ ->' in protocol code turns corrupt state into a \
       silently wrong route instead of a crash the harness can see";
    hint = "match the specific exception, or bind it and re-raise/log";
    applies = in_dirs [ "lib/"; "bin/"; "bench/" ];
  }

let l4 =
  {
    id = "L4";
    title = "no stray output";
    default_severity = Diagnostic.Error;
    rationale =
      "libraries must return data, not print it; stdout belongs to the \
       experiments/report layer and the drivers";
    hint =
      "return the value (or Printf.sprintf it) and let lib/experiments or \
       the bin/ driver print";
    applies =
      (fun p -> has_prefix ~prefix:"lib/" p && not (has_prefix ~prefix:"lib/experiments/" p));
  }

let l5 =
  {
    id = "L5";
    title = "no Obj.magic / untyped ignore";
    default_severity = Diagnostic.Error;
    rationale =
      "Obj.magic defeats the type system entirely, and a bare 'ignore (f x)' \
       hides a result (often a success flag) without recording what was \
       discarded";
    hint = "annotate the discard as 'ignore (f x : ty)' or bind the result";
    applies = in_dirs [ "lib/"; "bin/"; "bench/" ];
  }

(* The one module allowed to touch the concurrency primitives: everything
   else submits work through its task API. *)
let pool_allowlist = [ "lib/util/pool.ml" ]

let l6 =
  {
    id = "L6";
    title = "concurrency primitives only in the pool";
    default_severity = Diagnostic.Error;
    rationale =
      "the bit-reproducibility argument (DESIGN.md \xc2\xa75d) holds because every \
       domain, lock, and atomic in the tree lives behind Disco_util.Pool's \
       task API; a stray Domain.spawn or shared Mutex reintroduces \
       scheduling-dependent behaviour the argument cannot see";
    hint =
      "submit the work through Disco_util.Pool.run; lib/util/pool.ml is the \
       only module that may use Domain/Mutex/Condition/Atomic directly";
    applies =
      (fun p ->
        in_dirs [ "lib/"; "bin/"; "bench/" ] p
        && not (List.exists (String.equal p) pool_allowlist));
  }

let catalogue = [ l1; l2; l3; l4; l5; l6 ]

let find id = List.find_opt (fun r -> String.equal r.id id) catalogue

(* --- longident helpers ---------------------------------------------------- *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let dotted lid = String.concat "." (flatten_lid lid)

let strip_stdlib name =
  if has_prefix ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let mem_name name names = List.exists (String.equal (strip_stdlib name)) names

let l1_banned name =
  has_prefix ~prefix:"Random." (strip_stdlib name)
  || mem_name name
       [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime" ]

let l2_banned name = mem_name name [ "compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

let l4_banned name =
  mem_name name
    [
      "print_endline";
      "print_string";
      "print_newline";
      "print_int";
      "print_float";
      "print_char";
      "print_bytes";
      "Printf.printf";
      "Format.printf";
      "Format.print_string";
      "Format.print_newline";
    ]

let l5_banned name = mem_name name [ "Obj.magic" ]

let l6_banned name =
  let n = strip_stdlib name in
  List.exists
    (fun prefix -> has_prefix ~prefix n)
    [ "Domain."; "Mutex."; "Condition."; "Atomic."; "Thread." ]

(* Operand that definitely holds a boxed/structured value, where polymorphic
   equality walks the representation: tuples, records, arrays, string
   literals, and constructors/variants carrying a payload. *)
let structural e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_constant (Pconst_string _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> catch_all q
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

(* --- the engine ----------------------------------------------------------- *)

type finding = { rule : t; loc : Location.t; message : string }

let check_structure ~active structure =
  let out = ref [] in
  let emit id loc message =
    match List.find_opt (fun r -> String.equal r.id id) active with
    | Some rule -> out := { rule; loc; message } :: !out
    | None -> ()
  in
  let is_ignore e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> String.equal (strip_stdlib (dotted txt)) "ignore"
    | _ -> false
  in
  let bare_call e =
    (* A function application whose result is not type-annotated; wrapping
       the discard as [ignore (f x : ty)] is the accepted form. *)
    match e.pexp_desc with Pexp_apply _ -> true | _ -> false
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let name = dotted txt in
        if l1_banned name then
          emit "L1" loc
            (Printf.sprintf "%s is non-deterministic under a seed" name);
        if l2_banned name then
          emit "L2" loc
            (Printf.sprintf "polymorphic %s orders raw runtime representations" name);
        if l4_banned name then
          emit "L4" loc (Printf.sprintf "%s writes to stdout from library code" name);
        if l5_banned name then
          emit "L5" loc "Obj.magic defeats the type system";
        if l6_banned name then
          emit "L6" loc
            (Printf.sprintf
               "%s is a raw concurrency primitive outside lib/util/pool.ml" name)
    | Pexp_apply (fn, args) -> (
        (match (fn.pexp_desc, args) with
        | ( Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc },
            [ (_, a); (_, b) ] )
          when structural a || structural b ->
            emit "L2" loc
              (Printf.sprintf "polymorphic %s on a structured value" op)
        | _ -> ());
        match (fn.pexp_desc, args) with
        | _, [ (Asttypes.Nolabel, arg) ] when is_ignore fn && bare_call arg ->
            emit "L5" e.pexp_loc
              "ignore of a result-carrying call without a type annotation"
        | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, arg); (_, f) ]
          when is_ignore f && bare_call arg ->
            emit "L5" e.pexp_loc
              "ignore of a result-carrying call without a type annotation"
        | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, f); (_, arg) ]
          when is_ignore f && bare_call arg ->
            emit "L5" e.pexp_loc
              "ignore of a result-carrying call without a type annotation"
        | _ -> ())
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            if catch_all c.pc_lhs then
              emit "L3" c.pc_lhs.ppat_loc
                "catch-all handler swallows every exception")
          cases
    | Pexp_match (_, cases) ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p when catch_all p ->
                emit "L3" c.pc_lhs.ppat_loc
                  "catch-all exception case swallows every exception"
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  List.rev !out
