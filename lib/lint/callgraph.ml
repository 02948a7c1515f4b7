(* Repo-wide interprocedural call graph over typedtrees, the substrate for
   the typed rules L7-L10.

   Phase A walks every loaded unit's structure and registers definitions
   (top-level values, values in nested modules), module aliases, and
   top-level mutable globals.  Phase B walks each definition body and
   records per-definition facts: direct allocation sites, direct
   raise/partial-match sites, resolved calls (applied or referenced, with
   the optional arguments each application passes), and references to
   top-level mutable globals.  It also records every module packed as a
   first-class value.  The rules layer computes transitive verdicts over
   these facts.

   Names: a definition's key is "Unit.Sub.name" with dune's "__" wrapper
   mangling folded to "." (Hot_manifest.key), so "Disco_core__Forwarding
   .forward" and a call written "Disco_core.Forwarding.forward" collide as
   intended.

   Approximations (documented in DESIGN.md §5b): a locally let-bound
   closure's facts are attributed to its enclosing definition; calls
   through function values are reported as unverifiable rather than
   resolved; globals bound by an arbitrary constructor call (not a
   recognized mutable type or literal) are missed. *)

open Typedtree

type pos = { p_file : string; p_line : int; p_col : int }

let pos_of_loc (loc : Location.t) =
  let s = loc.Location.loc_start in
  {
    p_file = Driver.normalize_path s.Lexing.pos_fname;
    p_line = s.Lexing.pos_lnum;
    p_col = s.Lexing.pos_cnum - s.Lexing.pos_bol;
  }

type target =
  | Repo of string  (* key of a definition in the loaded set *)
  | External of string  (* normalized name outside the loaded set *)
  | Indirect of string  (* function value: parameter, field, computed *)

type site = { s_pos : pos; s_what : string }

type call = {
  c_pos : pos;
  c_target : target;
  c_applied : bool;
  c_in_try : bool;  (* inside a try body: exceptions do not escape *)
  c_passed : string list option;
      (* optional arguments this application passes; [None] for a bare
         reference or an alias, through which any of them may be passed *)
}

type def = {
  d_key : string;
  d_pos : pos;
  mutable d_hot_attr : bool;
  mutable d_allocs : site list;
  mutable d_raises : site list;  (* raisers and partial matches *)
  mutable d_calls : call list;
  mutable d_mut_refs : site list;  (* s_what = key of the global *)
  mutable d_optionals : string list;  (* labels of its optional parameters *)
}

type global = { g_key : string; g_pos : pos; g_kind : string; g_memo : bool }

type t = {
  defs : (string, def) Hashtbl.t;
  mutable def_order : string list;  (* insertion order, for determinism *)
  globals : (string, global) Hashtbl.t;
  mutable task_entries : string list;  (* def keys seeded on pool domains *)
  mutable packed : string list;  (* prefixes of modules packed as values *)
}

(* --- phase A: declarations ------------------------------------------------ *)

type decl = {
  (* Ident.unique_name -> def key, for every registered value binding. *)
  val_stamps : (string, string) Hashtbl.t;
  (* local structure module stamp -> canonical prefix *)
  mod_locals : (string, string) Hashtbl.t;
  (* module alias stamp -> aliased path, resolved lazily *)
  mod_aliases : (string, Path.t) Hashtbl.t;
  (* definition order: key, binding, hot?, enclosing source file *)
  mutable bindings : (string * value_binding * bool) list;
  mutable globals : global list;
  dc_unit : string;  (* unit key, e.g. "Disco_core.Forwarding" *)
  dc_source : string;
}

let has_attr name attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let rec pat_idents p =
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (q, id, _) -> id :: pat_idents q
  | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | Tpat_variant (_, Some q, _) -> pat_idents q
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, q) -> pat_idents q) fields
  | Tpat_lazy q -> pat_idents q
  | Tpat_or (a, b, _) -> pat_idents a @ pat_idents b
  | _ -> []

let type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (Rules.strip_stdlib (Path.name p))
  | _ -> None

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let has_suffix ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.equal (String.sub s (n - m) m) suffix

(* A Dijkstra workspace is scratch for one run at a time; its type is
   abstract, so it is named here rather than found by its fields. *)
let mutable_type_heads =
  [
    "ref";
    "array";
    "bytes";
    "Hashtbl.t";
    "Buffer.t";
    "Queue.t";
    "Stack.t";
    "Atomic.t";
    "Dijkstra.workspace";
  ]

let mutable_makers =
  [
    "ref";
    "Hashtbl.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Atomic.make";
    "Dijkstra.make_workspace";
  ]

(* A qualified entry also matches under a library prefix
   ("Disco_graph.Dijkstra.workspace"). *)
let names_one_of names s =
  List.exists
    (fun m ->
      String.equal m s
      || (String.contains m '.' && has_suffix ~suffix:("." ^ m) s))
    names

(* Name as written at an application head, before resolution; used only for
   the structural mutable-global test where scope is irrelevant. *)
let rough_apply_head e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) ->
          Some (Rules.strip_stdlib (Hot_manifest.key (Path.name p)))
      | _ -> None)
  | _ -> None

let rec mutable_record_literal e =
  match e.exp_desc with
  | Texp_record { fields; _ } ->
      Array.exists
        (fun ((ld : Types.label_description), _) ->
          match ld.Types.lbl_mut with
          | Asttypes.Mutable -> true
          | Asttypes.Immutable -> false)
        fields
  | Texp_let (_, _, body) -> mutable_record_literal body
  | _ -> false

let global_of_binding ~key vb =
  let head = type_head vb.vb_expr.exp_type in
  let maker = rough_apply_head vb.vb_expr in
  let memo =
    (match head with Some h -> has_suffix ~suffix:"Pool.Memo.t" (Hot_manifest.key h) | None -> false)
    || match maker with
       | Some m -> has_suffix ~suffix:"Pool.Memo.create" m
       | None -> false
  in
  let kind =
    if memo then Some "Pool.Memo.t"
    else
      match head with
      | Some h when names_one_of mutable_type_heads (Hot_manifest.key h) ->
          Some (Hot_manifest.key h)
      | _ -> (
          match maker with
          | Some m when names_one_of mutable_makers m -> Some m
          | _ ->
              if mutable_record_literal vb.vb_expr then
                Some "record with mutable fields"
              else
                match vb.vb_expr.exp_desc with
                | Texp_array _ -> Some "array"
                | _ -> None)
  in
  match kind with
  | Some g_kind ->
      Some { g_key = key; g_pos = pos_of_loc vb.vb_loc; g_kind; g_memo = memo }
  | None -> None

let register_binding dc ~prefix vb =
  let anon_key () =
    Printf.sprintf "%s.<init@%d>" prefix
      (vb.vb_loc.Location.loc_start.Lexing.pos_lnum)
  in
  let ids = pat_idents vb.vb_pat in
  let key =
    match ids with
    | [ id ] -> prefix ^ "." ^ Ident.name id
    | _ -> anon_key ()
  in
  List.iter
    (fun id -> Hashtbl.replace dc.val_stamps (Ident.unique_name id) key)
    ids;
  let hot = has_attr "hot" vb.vb_attributes in
  dc.bindings <- (key, vb, hot) :: dc.bindings;
  (* Only single-name bindings can be globals; destructuring a mutable
     structure into parts is not a shape the repo uses at top level. *)
  match ids with
  | [ _ ] -> (
      match global_of_binding ~key vb with
      | Some g -> dc.globals <- g :: dc.globals
      | None -> ())
  | _ -> ()

let rec register_module_expr dc ~prefix (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> register_structure dc ~prefix str
  | Tmod_constraint (inner, _, _, _) -> register_module_expr dc ~prefix inner
  | _ -> ()

and register_module_binding dc ~prefix (mb : module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
      let sub = prefix ^ "." ^ Ident.name id in
      match mb.mb_expr.mod_desc with
      | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _)
        ->
          Hashtbl.replace dc.mod_aliases (Ident.unique_name id) p
      | _ ->
          Hashtbl.replace dc.mod_locals (Ident.unique_name id) sub;
          register_module_expr dc ~prefix:sub mb.mb_expr)

and register_structure dc ~prefix str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (register_binding dc ~prefix) vbs
      | Tstr_module mb -> register_module_binding dc ~prefix mb
      | Tstr_recmodule mbs -> List.iter (register_module_binding dc ~prefix) mbs
      | _ -> ())
    str.str_items

let declare (u : Typed_load.unit_info) =
  let dc =
    {
      val_stamps = Hashtbl.create 64;
      mod_locals = Hashtbl.create 8;
      mod_aliases = Hashtbl.create 8;
      bindings = [];
      globals = [];
      dc_unit = Hot_manifest.key u.Typed_load.u_modname;
      dc_source = u.Typed_load.u_source;
    }
  in
  register_structure dc ~prefix:dc.dc_unit u.Typed_load.u_structure;
  dc.bindings <- List.rev dc.bindings;
  dc.globals <- List.rev dc.globals;
  dc

(* --- path resolution ------------------------------------------------------ *)

type env = {
  e_decl : decl;
  e_known : (string, unit) Hashtbl.t;  (* every def and global key, all units *)
}

let rec module_prefix env (p : Path.t) =
  match p with
  | Path.Pident id -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt env.e_decl.mod_aliases u with
      | Some target -> module_prefix env target
      | None -> (
          match Hashtbl.find_opt env.e_decl.mod_locals u with
          | Some prefix -> Some prefix
          | None -> Some (Ident.name id)))
  | Path.Pdot (q, s) -> (
      match module_prefix env q with
      | Some prefix -> Some (prefix ^ "." ^ s)
      | None -> None)
  | _ -> None

let classify_dotted env full =
  let k = Hot_manifest.key full in
  if Rules.has_prefix ~prefix:"Stdlib." k then
    External (Rules.strip_stdlib k)
  else if Hashtbl.mem env.e_known k then Repo k
  else External k

let resolve env ~local_clean (p : Path.t) =
  match p with
  | Path.Pident id -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt env.e_decl.val_stamps u with
      | Some key -> Repo key
      | None ->
          if Hashtbl.mem local_clean u then Indirect ("local function " ^ Ident.name id)
          else Indirect ("function value " ^ Ident.name id))
  | Path.Pdot (q, s) -> (
      match module_prefix env q with
      | Some prefix -> classify_dotted env (prefix ^ "." ^ s)
      | None -> Indirect "functor-applied module")
  | _ -> Indirect "functor-applied module"

(* Is a resolved Pident a local let-bound closure (whose body facts are
   already attributed to the enclosing def)? *)
let is_local_clean ~local_clean (p : Path.t) =
  match p with
  | Path.Pident id -> Hashtbl.mem local_clean (Ident.unique_name id)
  | _ -> false

(* The definition prefix of a module packed by [(module M : S)]. *)
let rec packed_prefix env (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Option.map Hot_manifest.key (module_prefix env p)
  | Tmod_constraint (inner, _, _, _) -> packed_prefix env inner
  | _ -> None

(* --- phase B: per-definition facts ---------------------------------------- *)

type walk_ctx = {
  w_def : def;
  w_env : env;
  w_graph : t;
  (* stamps of let-bound syntactic closures in this body *)
  w_local_clean : (string, unit) Hashtbl.t;
  mutable w_try_depth : int;
  w_task_keys : (string, unit) Hashtbl.t;  (* task-API keys, for L8 seeding *)
}

let add_alloc ctx loc what =
  ctx.w_def.d_allocs <- { s_pos = pos_of_loc loc; s_what = what } :: ctx.w_def.d_allocs

let add_raise ctx loc what =
  if ctx.w_try_depth = 0 then
    ctx.w_def.d_raises <-
      { s_pos = pos_of_loc loc; s_what = what } :: ctx.w_def.d_raises

let add_call ctx loc target ~applied ~passed =
  ctx.w_def.d_calls <-
    {
      c_pos = pos_of_loc loc;
      c_target = target;
      c_applied = applied;
      c_in_try = ctx.w_try_depth > 0;
      c_passed = passed;
    }
    :: ctx.w_def.d_calls

let add_mut_ref ctx loc gkey =
  ctx.w_def.d_mut_refs <-
    { s_pos = pos_of_loc loc; s_what = gkey } :: ctx.w_def.d_mut_refs

let record_ident ctx loc p =
  if not (is_local_clean ~local_clean:ctx.w_local_clean p) then
    match resolve ctx.w_env ~local_clean:ctx.w_local_clean p with
    | Repo key ->
        add_call ctx loc (Repo key) ~applied:false ~passed:None;
        (match Hashtbl.find_opt ctx.w_graph.globals key with
        | Some g when not g.g_memo -> add_mut_ref ctx loc key
        | _ -> ())
    | External _ | Indirect _ -> ()

(* A payload argument that does not force a fresh block by itself. *)
let immediate_arg a =
  match a.exp_desc with
  | Texp_ident _ | Texp_constant _ -> true
  | Texp_construct (_, _, []) -> true
  | _ -> false

let exempt_construct (cd : Types.constructor_description) args =
  (not (String.equal cd.Types.cstr_name "::")) && List.for_all immediate_arg args

let task_entry_name parent_key line = Printf.sprintf "%s.<task@%d>" parent_key line

(* The optional arguments an application passes.  The typechecker fills an
   omitted one with a [None] at a ghost location; an explicit [?x:None]
   keeps its source location and counts as passed. *)
let passed_optionals args =
  List.filter_map
    (fun (label, a) ->
      match (label, a) with
      | Asttypes.Optional l, Some e when not e.exp_loc.Location.loc_ghost ->
          Some l
      | _ -> None)
    args

(* Labels of a definition's optional parameters, down its lambda chain
   (through the [*opt*] unpacking of a defaulted one, as in [bodies_of]). *)
let rec optional_params e =
  match e.exp_desc with
  | Texp_function
      { arg_label; param; cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      let rest =
        match c_rhs.exp_desc with
        | Texp_let (_, _, cont) when String.equal (Ident.name param) "*opt*" ->
            cont
        | _ -> c_rhs
      in
      (match arg_label with Asttypes.Optional l -> [ l ] | _ -> [])
      @ optional_params rest
  | _ -> []

(* Shadowed top-level names share a key: merge their facts (a safe
   over-approximation) instead of dropping the later binding. *)
let new_def graph ~key ~pos ~hot =
  match Hashtbl.find_opt graph.defs key with
  | Some d ->
      if hot then d.d_hot_attr <- true;
      d
  | None ->
      let d =
        {
          d_key = key;
          d_pos = pos;
          d_hot_attr = hot;
          d_allocs = [];
          d_raises = [];
          d_calls = [];
          d_mut_refs = [];
          d_optionals = [];
        }
      in
      Hashtbl.add graph.defs key d;
      graph.def_order <- key :: graph.def_order;
      d

(* Strip the definition-lambda chain: single total unguarded cases are
   parameters of the definition, anything else is body.  Partial parameter
   patterns are a raise fact of the definition itself.

   An optional argument with a default, [fun ?(x = d) -> rest], elaborates
   to [fun *opt* -> let x = match *opt* with Some x -> x | None -> d in
   rest]; without the special case the stripper would stop at the let and
   count the remaining curried parameters as closure allocations of the
   body.  The binding (which evaluates [d] when the caller omits the
   argument) is kept as a body so a defaulted allocation still counts. *)
let rec bodies_of ctx e =
  match e.exp_desc with
  | Texp_function { param; cases; partial; _ } -> (
      if partial = Partial then
        add_raise ctx e.exp_loc "non-exhaustive parameter pattern";
      match cases with
      | [ { c_guard = None; c_rhs; _ } ] -> (
          match c_rhs.exp_desc with
          | Texp_let (_, vbs, cont) when String.equal (Ident.name param) "*opt*"
            ->
              List.concat_map (fun vb -> bodies_of ctx vb.vb_expr) vbs
              @ bodies_of ctx cont
          | _ -> bodies_of ctx c_rhs)
      | cases ->
          List.concat_map
            (fun c ->
              (match c.c_guard with Some g -> [ g ] | None -> []) @ [ c.c_rhs ])
            cases)
  | _ -> [ e ]

let rec walk_body ctx body =
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> record_ident ctx e.exp_loc p
    | Texp_let (_, vbs, rest) ->
        List.iter
          (fun vb ->
            match vb.vb_expr.exp_desc with
            | Texp_function _ ->
                List.iter
                  (fun id ->
                    Hashtbl.replace ctx.w_local_clean (Ident.unique_name id) ())
                  (pat_idents vb.vb_pat)
            | _ -> ())
          vbs;
        List.iter (fun vb -> it.Tast_iterator.expr it vb.vb_expr) vbs;
        it.Tast_iterator.expr it rest
    | Texp_function { partial; _ } ->
        add_alloc ctx e.exp_loc "closure allocation";
        if partial = Partial then
          add_raise ctx e.exp_loc "non-exhaustive function pattern";
        Tast_iterator.default_iterator.expr it e
    | Texp_apply (fn, args) -> walk_apply ctx it e fn args
    | Texp_match (_, _, partial) ->
        if partial = Partial then add_raise ctx e.exp_loc "non-exhaustive match";
        Tast_iterator.default_iterator.expr it e
    | Texp_try (b, cases) ->
        ctx.w_try_depth <- ctx.w_try_depth + 1;
        it.Tast_iterator.expr it b;
        ctx.w_try_depth <- ctx.w_try_depth - 1;
        List.iter
          (fun c ->
            (match c.c_guard with Some g -> it.Tast_iterator.expr it g | None -> ());
            it.Tast_iterator.expr it c.c_rhs)
          cases
    | Texp_tuple _ ->
        add_alloc ctx e.exp_loc "tuple allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_construct (_, cd, args) ->
        if args <> [] && not (exempt_construct cd args) then
          add_alloc ctx e.exp_loc
            (Printf.sprintf "constructor %s with a computed or list payload"
               cd.Types.cstr_name);
        Tast_iterator.default_iterator.expr it e
    | Texp_variant (_, Some _) ->
        add_alloc ctx e.exp_loc "polymorphic-variant allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_record _ ->
        add_alloc ctx e.exp_loc "record allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_array _ ->
        add_alloc ctx e.exp_loc "array literal allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_lazy _ ->
        add_alloc ctx e.exp_loc "lazy-block allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_letop _ ->
        add_alloc ctx e.exp_loc "binding-operator closure allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_pack me ->
        add_alloc ctx e.exp_loc "first-class-module allocation";
        Option.iter
          (fun prefix -> ctx.w_graph.packed <- prefix :: ctx.w_graph.packed)
          (packed_prefix ctx.w_env me);
        Tast_iterator.default_iterator.expr it e
    | Texp_object _ | Texp_new _ ->
        add_alloc ctx e.exp_loc "object allocation";
        Tast_iterator.default_iterator.expr it e
    | Texp_assert (_, _) ->
        add_raise ctx e.exp_loc "assert";
        Tast_iterator.default_iterator.expr it e
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it body

and walk_apply ctx it e fn args =
  (* Pipe operators: analyze f as applied to its argument. *)
  let reassociated =
    match (fn.exp_desc, args) with
    | Texp_ident (p, _, _), [ (_, Some a); (_, Some b) ] -> (
        match resolve ctx.w_env ~local_clean:ctx.w_local_clean p with
        | External "@@" -> Some (a, b)
        | External "|>" -> Some (b, a)
        | _ -> None)
    | _ -> None
  in
  match reassociated with
  | Some (f, x) ->
      walk_apply ctx it e f [ (Asttypes.Nolabel, Some x) ]
  | None ->
      (match fn.exp_desc with
      | Texp_ident (p, _, _) ->
          if not (is_local_clean ~local_clean:ctx.w_local_clean p) then begin
            let target = resolve ctx.w_env ~local_clean:ctx.w_local_clean p in
            add_call ctx e.exp_loc target ~applied:true
              ~passed:(Some (passed_optionals args));
            (match target with
            | Repo key -> (
                match Hashtbl.find_opt ctx.w_graph.globals key with
                | Some g when not g.g_memo -> add_mut_ref ctx e.exp_loc key
                | _ -> ())
            | _ -> ());
            let tkey =
              match target with
              | Repo k -> Some k
              | External k -> Some k
              | Indirect _ -> None
            in
            match tkey with
            | Some k when Hashtbl.mem ctx.w_task_keys k ->
                List.iter (fun (_, a) -> Option.iter (seed_task ctx) a) args
            | _ -> ()
          end
      | _ ->
          add_call ctx e.exp_loc (Indirect "computed function expression")
            ~applied:true ~passed:None;
          it.Tast_iterator.expr it fn);
      if is_arrow e.exp_type then
        add_alloc ctx e.exp_loc "partial application";
      List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args

(* A function argument at a task-API call site: it will run on a pool
   domain, so it seeds the L8 reachability check. *)
and seed_task ctx a =
  if is_arrow a.exp_type then
    match a.exp_desc with
    | Texp_function _ ->
        let line = a.exp_loc.Location.loc_start.Lexing.pos_lnum in
        let key = task_entry_name ctx.w_def.d_key line in
        if not (Hashtbl.mem ctx.w_graph.defs key) then begin
          let child =
            new_def ctx.w_graph ~key ~pos:(pos_of_loc a.exp_loc) ~hot:false
          in
          (* The closure shares the enclosing definition's environment:
             anything the parent can reach, the task can reach. *)
          child.d_calls <-
            [
              {
                c_pos = pos_of_loc a.exp_loc;
                c_target = Repo ctx.w_def.d_key;
                c_applied = true;
                c_in_try = false;
                c_passed = None;
              };
            ];
          let child_ctx = { ctx with w_def = child; w_try_depth = 0 } in
          List.iter (walk_body child_ctx) (bodies_of child_ctx a);
          ctx.w_graph.task_entries <- key :: ctx.w_graph.task_entries
        end
    | Texp_ident (p, _, _) -> (
        match resolve ctx.w_env ~local_clean:ctx.w_local_clean p with
        | Repo key -> ctx.w_graph.task_entries <- key :: ctx.w_graph.task_entries
        | External _ -> ()
        | Indirect _ ->
            (* A function value from the enclosing scope: fall back to the
               parent's whole reachable set. *)
            ctx.w_graph.task_entries <- ctx.w_def.d_key :: ctx.w_graph.task_entries)
    | _ ->
        ctx.w_graph.task_entries <- ctx.w_def.d_key :: ctx.w_graph.task_entries

(* --- build ---------------------------------------------------------------- *)

let build units =
  let decls = List.map declare units in
  let known = Hashtbl.create 256 in
  List.iter
    (fun dc ->
      List.iter (fun (key, _, _) -> Hashtbl.replace known key ()) dc.bindings)
    decls;
  let graph =
    {
      defs = Hashtbl.create 256;
      def_order = [];
      globals = Hashtbl.create 32;
      task_entries = [];
      packed = [];
    }
  in
  (* The pool implementation is the guarded choke point: its own internal
     mutable state is what the Memo/mutex discipline is about, so it is not
     a lint subject for L8. *)
  List.iter
    (fun dc ->
      if not (has_suffix ~suffix:"Pool" dc.dc_unit) then
        List.iter (fun g -> Hashtbl.replace graph.globals g.g_key g) dc.globals)
    decls;
  let task_keys = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace task_keys k ()) (Hot_manifest.task_api_keys ());
  List.iter
    (fun dc ->
      let env = { e_decl = dc; e_known = known } in
      List.iter
        (fun (key, vb, hot) ->
          let def = new_def graph ~key ~pos:(pos_of_loc vb.vb_loc) ~hot in
          def.d_optionals <-
            List.sort_uniq String.compare
              (optional_params vb.vb_expr @ def.d_optionals);
          let ctx =
            {
              w_def = def;
              w_env = env;
              w_graph = graph;
              w_local_clean = Hashtbl.create 16;
              w_try_depth = 0;
              w_task_keys = task_keys;
            }
          in
          let bodies = bodies_of ctx vb.vb_expr in
          (* Eta-less aliases ([let g = f]) forward their verdict: treat the
             bare body identifier as an applied call. *)
          (match bodies with
          | [ ({ exp_desc = Texp_ident (p, _, _); _ } as b) ]
            when not (is_local_clean ~local_clean:ctx.w_local_clean p) ->
              add_call ctx b.exp_loc
                (resolve env ~local_clean:ctx.w_local_clean p)
                ~applied:true ~passed:None
          | _ -> List.iter (walk_body ctx) bodies))
        dc.bindings)
    decls;
  graph.def_order <- List.rev graph.def_order;
  graph.task_entries <- List.sort_uniq String.compare graph.task_entries;
  graph.packed <- List.sort_uniq String.compare graph.packed;
  graph
