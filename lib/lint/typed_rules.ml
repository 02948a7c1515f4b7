(* The typed rule catalogue (L7-L10 plus the H0 manifest-integrity check)
   and the verdict engine that applies it to a Callgraph.t.

   Scope and honesty notes (also in DESIGN.md §5b):
   - L7 flags allocation the typedtree shows directly (closures, tuples,
     records, arrays, non-trivial constructor payloads, lazy, partial
     application) plus calls to anything not provably allocation-free:
     repo functions with an allocating body, externals outside the
     allowlist below, and calls through function values.  Boxed
     Int64/Int32/float trips through externals (Int64.mul, ...) fall out
     of the allowlist rule; float boxing introduced purely by the
     register allocator is out of scope.
   - Constructor payloads that are all identifiers/constants and not a
     list cons are exempt: the decision/header protocol is variants, and
     returning [Forward next] is the API, not a leak.
   - L9 flags raisers and partial matches; out-of-bounds/array accesses
     and division are implicit exceptions the typedtree does not mark and
     are out of scope.  A raise inside [try ... with] does not escape and
     is not a finding.
   - L8 seeds at task-API call sites (Hot_manifest.task_apis) and walks
     every call/reference edge; a reference to a top-level mutable global
     (outside Pool, and not a Pool.Memo.t) in the reachable set is a
     finding. *)

let l7 : Rules.t =
  {
    Rules.id = "L7";
    title = "hot-path allocation discipline";
    default_severity = Diagnostic.Error;
    rationale =
      "the paper's \xc3\x95(\xe2\x88\x9an)-state guarantee only matters at scale if the \
       per-hop walker is allocation-free; one closure or boxed value per hop \
       is a GC wall at 10^6 nodes";
    hint =
      "hoist the allocation out of the hot path, call only allocation-free \
       helpers, or waive the site: (* disco-lint: allow L7 reason *)";
    applies = (fun _ -> true);
  }

let l8 : Rules.t =
  {
    Rules.id = "L8";
    title = "domain escape";
    default_severity = Diagnostic.Error;
    rationale =
      "top-level mutable state reached from a Pool task runs on several \
       domains at once; unsynchronized access is a data race the \
       determinism argument (DESIGN.md \xc2\xa75d) cannot see";
    hint =
      "pass state through the task's arguments and merge results on the \
       caller, or guard the shared table with Disco_util.Pool.Memo";
    applies = (fun _ -> true);
  }

let l9 : Rules.t =
  {
    Rules.id = "L9";
    title = "hot-path exception hygiene";
    default_severity = Diagnostic.Error;
    rationale =
      "the walker must degrade to Drop, never throw: an exception escaping \
       a forward function tears down the whole experiment instead of \
       recording a routing failure";
    hint =
      "return Drop (or an option) instead of raising; wrap genuinely \
       impossible cases in try/with at the boundary; or waive the site: \
       (* disco-lint: allow L9 reason *)";
    applies = (fun _ -> true);
  }

let h0 : Rules.t =
  {
    Rules.id = "H0";
    title = "hot-path manifest integrity";
    default_severity = Diagnostic.Error;
    rationale =
      "a manifest entry that no longer resolves to a definition means a hot \
       function was renamed or removed without updating the discipline";
    hint = "update lib/lint/hot_manifest.ml to match the code";
    applies = (fun _ -> true);
  }

let l10 : Rules.t =
  {
    Rules.id = "L10";
    title = "unreached code";
    default_severity = Diagnostic.Error;
    rationale =
      "a library definition no executable reaches, or an optional argument \
       no reached call passes, is code no figure, check or example runs: it \
       costs reading and upkeep and is verified by nothing";
    hint =
      "delete it with the tests that only test it, replace a never-passed \
       optional argument by the value every caller gets, or waive it naming \
       the test that uses it as a reference or fake, or the open ROADMAP \
       item that needs it: (* disco-lint: allow L10 reason *)";
    applies = (fun _ -> true);
  }

let catalogue = [ l7; l8; l9; l10; h0 ]
let find id = List.find_opt (fun r -> String.equal r.Rules.id id) catalogue

(* --- external allowlists -------------------------------------------------- *)

(* Externals we assert are allocation-free per call.  Everything not listed
   is treated as potentially allocating ("not known to be allocation-free"):
   the list errs on the side of noise, because a waiver is cheap and a
   silent allocation in the hop loop is not. *)
let alloc_free_externals =
  [
    (* integer and float primitives *)
    "+"; "-"; "*"; "/"; "mod"; "abs"; "land"; "lor"; "lxor"; "lnot"; "lsl";
    "lsr"; "asr"; "succ"; "pred"; "+."; "-."; "*."; "/."; "**"; "~-"; "~-.";
    "~+"; "~+."; "sqrt"; "exp"; "log"; "floor"; "ceil"; "min"; "max";
    (* unboxed [@@noalloc] external: exact mantissa/exponent reassembly in
       the fast-path float decoder *)
    "ldexp";
    "float_of_int"; "int_of_float"; "truncate"; "float"; "int_of_char";
    "char_of_int"; "not"; "&&"; "||"; "&"; "or";
    (* comparison *)
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare";
    "Int.compare"; "Int.equal"; "Int.max"; "Int.min"; "Int.abs";
    "Float.compare"; "Float.equal"; "Float.is_nan"; "Float.abs";
    "Float.of_int"; "Float.to_int"; "Float.max"; "Float.min";
    "Char.code"; "Char.compare"; "Char.equal";
    "String.length"; "String.get"; "String.unsafe_get"; "String.equal";
    "String.compare"; "String.iter";
    "Int64.compare"; "Int64.equal"; "Int64.unsigned_compare"; "Int64.to_int";
    "Int32.to_int"; "Nativeint.to_int";
    (* mutation and cells that already exist *)
    "!"; ":="; "incr"; "decr"; "ignore"; "fst"; "snd";
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Array.iter";
    "Array.iteri"; "Array.fold_left"; "Array.sort"; "Array.exists";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit"; "Bytes.blit_string";
    "Bytes.unsafe_fill";
    (* bigarray access primitives: at call sites where the array's kind is
       statically known (our packed float slabs are concretely typed) the
       compiler emits an inline load/store with an unboxed float, so hop
       loops may read distance slabs directly — the throughput suite's
       zero-alloc gate double-checks this empirically *)
    "Bigarray.Array1.get"; "Bigarray.Array1.set"; "Bigarray.Array1.unsafe_get";
    "Bigarray.Array1.unsafe_set"; "Bigarray.Array1.dim";
    (* zero-copy casts: no allocation, just a type-level reinterpretation *)
    "Bytes.unsafe_of_string"; "Bytes.unsafe_to_string";
    (* float predicates/conversions returning immediates *)
    "Float.is_finite"; "Float.is_nan"; "Float.compare"; "Float.equal";
    "Float.to_int"; "int_of_float";
    "Hashtbl.mem"; "Hashtbl.length"; "Hashtbl.remove"; "Hashtbl.clear";
    "Hashtbl.reset"; "Hashtbl.iter";
    "Buffer.length"; "Buffer.clear"; "Buffer.reset"; "Buffer.add_char";
    "Queue.length"; "Queue.is_empty"; "Stack.length"; "Stack.is_empty";
    "List.length"; "List.iter"; "List.exists"; "List.mem"; "List.memq";
    "List.for_all"; "List.compare_lengths";
    "Option.is_some"; "Option.is_none"; "Option.value";
    "Fun.id"; "Sys.opaque_identity";
    (* raising is not allocating (the exception block is accounted at its
       construction site); these stay visible to L9 below *)
    "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    (* pipes are re-associated by the walker; seeing one bare is harmless *)
    "@@"; "|>";
  ]

(* Externals that raise by contract (partial stdlib functions and the
   raisers themselves).  Implicit exceptions (bounds, Division_by_zero,
   Char.chr range, ...) are out of scope. *)
let raising_externals =
  [
    "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit"; "assert";
    "Hashtbl.find"; "List.hd"; "List.tl"; "List.find"; "List.nth";
    "List.assoc"; "Option.get"; "Stack.pop"; "Queue.pop"; "Queue.take";
    "Queue.peek";
  ]

let is_alloc_free_external name = List.mem name alloc_free_externals
let is_raising_external name = List.mem name raising_externals

(* --- transitive verdicts -------------------------------------------------- *)

(* For each def, an optional reason it is not allocation-free (resp. can
   raise).  Direct reasons seed a worklist; callers of a dirty def become
   dirty through applied repo calls. *)

type verdicts = (string, string) Hashtbl.t

let site_str (s : Callgraph.site) =
  Printf.sprintf "%s (%s:%d)" s.Callgraph.s_what s.Callgraph.s_pos.Callgraph.p_file
    s.Callgraph.s_pos.Callgraph.p_line

let direct_alloc_reason (d : Callgraph.def) =
  match d.Callgraph.d_allocs with
  | s :: _ -> Some (site_str s)
  | [] ->
      List.find_map
        (fun (c : Callgraph.call) ->
          if not c.Callgraph.c_applied then None
          else
            match c.Callgraph.c_target with
            | Callgraph.External x when not (is_alloc_free_external x) ->
                Some
                  (Printf.sprintf "calls %s (not known allocation-free) at %s:%d"
                     x c.Callgraph.c_pos.Callgraph.p_file
                     c.Callgraph.c_pos.Callgraph.p_line)
            | Callgraph.Indirect what ->
                Some
                  (Printf.sprintf "calls through a %s at %s:%d" what
                     c.Callgraph.c_pos.Callgraph.p_file
                     c.Callgraph.c_pos.Callgraph.p_line)
            | _ -> None)
        d.Callgraph.d_calls

let direct_raise_reason (d : Callgraph.def) =
  match d.Callgraph.d_raises with
  | s :: _ -> Some (site_str s)
  | [] ->
      List.find_map
        (fun (c : Callgraph.call) ->
          if (not c.Callgraph.c_applied) || c.Callgraph.c_in_try then None
          else
            match c.Callgraph.c_target with
            | Callgraph.External x when is_raising_external x ->
                Some
                  (Printf.sprintf "calls %s at %s:%d" x
                     c.Callgraph.c_pos.Callgraph.p_file
                     c.Callgraph.c_pos.Callgraph.p_line)
            | _ -> None)
        d.Callgraph.d_calls

(* Worklist propagation over reverse applied-call edges. *)
let propagate (cg : Callgraph.t) ~direct ~edge_ok : verdicts =
  let verdicts : verdicts = Hashtbl.create 128 in
  let rev = Hashtbl.create 128 in
  List.iter
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      List.iter
        (fun (c : Callgraph.call) ->
          if c.Callgraph.c_applied && edge_ok c then
            match c.Callgraph.c_target with
            | Callgraph.Repo callee ->
                Hashtbl.add rev callee key  (* callee -> caller *)
            | _ -> ())
        d.Callgraph.d_calls)
    cg.Callgraph.def_order;
  let q = Queue.create () in
  List.iter
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      match direct d with
      | Some reason ->
          Hashtbl.replace verdicts key reason;
          Queue.add key q
      | None -> ())
    cg.Callgraph.def_order;
  while not (Queue.is_empty q) do
    let callee = Queue.pop q in
    List.iter
      (fun caller ->
        if not (Hashtbl.mem verdicts caller) then begin
          Hashtbl.replace verdicts caller
            (Printf.sprintf "calls %s, which is not clean: %s" callee
               (Hashtbl.find verdicts callee));
          Queue.add caller q
        end)
      (Hashtbl.find_all rev callee)
  done;
  verdicts

(* --- findings ------------------------------------------------------------- *)

type finding = { rule : Rules.t; f_pos : Callgraph.pos; message : string }

let hot_set (cg : Callgraph.t) =
  let hot = Hashtbl.create 32 in
  let missing = ref [] in
  List.iter
    (fun name ->
      let k = Hot_manifest.key name in
      if Hashtbl.mem cg.Callgraph.defs k then Hashtbl.replace hot k ()
      else missing := name :: !missing)
    (Hot_manifest.hot_names ());
  List.iter
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      if d.Callgraph.d_hot_attr then Hashtbl.replace hot key ())
    cg.Callgraph.def_order;
  (hot, List.rev !missing)

(* When the analyzed set is a subtree (fixtures, a single directory), the
   manifest mostly points outside it; H0 only applies when the whole repo
   is on the table, signalled by the driver via [check_manifest]. *)

let l7_findings cg hot alloc_verdicts =
  List.concat_map
    (fun key ->
      if not (Hashtbl.mem hot key) then []
      else
        let d = Hashtbl.find cg.Callgraph.defs key in
        let direct =
          List.rev_map
            (fun (s : Callgraph.site) ->
              {
                rule = l7;
                f_pos = s.Callgraph.s_pos;
                message =
                  Printf.sprintf "%s in hot function %s" s.Callgraph.s_what key;
              })
            d.Callgraph.d_allocs
        in
        let calls =
          List.rev
            (List.filter_map
               (fun (c : Callgraph.call) ->
                 if not c.Callgraph.c_applied then None
                 else
                   match c.Callgraph.c_target with
                   | Callgraph.Repo g ->
                       if Hashtbl.mem hot g then None
                       else
                         Option.map
                           (fun reason ->
                             {
                               rule = l7;
                               f_pos = c.Callgraph.c_pos;
                               message =
                                 Printf.sprintf
                                   "hot function %s calls %s, which is not \
                                    allocation-free: %s"
                                   key g reason;
                             })
                           (Hashtbl.find_opt alloc_verdicts g)
                   | Callgraph.External x ->
                       if is_alloc_free_external x then None
                       else
                         Some
                           {
                             rule = l7;
                             f_pos = c.Callgraph.c_pos;
                             message =
                               Printf.sprintf
                                 "hot function %s calls %s, which is not known \
                                  to be allocation-free"
                                 key x;
                           }
                   | Callgraph.Indirect what ->
                       Some
                         {
                           rule = l7;
                           f_pos = c.Callgraph.c_pos;
                           message =
                             Printf.sprintf
                               "hot function %s calls through a %s, which \
                                cannot be verified allocation-free"
                               key what;
                         })
               d.Callgraph.d_calls)
        in
        direct @ calls)
    cg.Callgraph.def_order

let l9_findings cg hot raise_verdicts =
  List.concat_map
    (fun key ->
      if not (Hashtbl.mem hot key) then []
      else
        let d = Hashtbl.find cg.Callgraph.defs key in
        let direct =
          List.rev_map
            (fun (s : Callgraph.site) ->
              {
                rule = l9;
                f_pos = s.Callgraph.s_pos;
                message =
                  Printf.sprintf "%s in hot function %s" s.Callgraph.s_what key;
              })
            d.Callgraph.d_raises
        in
        let calls =
          List.rev
            (List.filter_map
               (fun (c : Callgraph.call) ->
                 if (not c.Callgraph.c_applied) || c.Callgraph.c_in_try then None
                 else
                   match c.Callgraph.c_target with
                   | Callgraph.Repo g ->
                       if Hashtbl.mem hot g then None
                       else
                         Option.map
                           (fun reason ->
                             {
                               rule = l9;
                               f_pos = c.Callgraph.c_pos;
                               message =
                                 Printf.sprintf
                                   "hot function %s calls %s, which can raise: \
                                    %s"
                                   key g reason;
                             })
                           (Hashtbl.find_opt raise_verdicts g)
                   | Callgraph.External x ->
                       if is_raising_external x then
                         Some
                           {
                             rule = l9;
                             f_pos = c.Callgraph.c_pos;
                             message =
                               Printf.sprintf
                                 "hot function %s calls %s, which raises by \
                                  contract"
                                 key x;
                           }
                       else None
                   | Callgraph.Indirect _ -> None)
               d.Callgraph.d_calls)
        in
        direct @ calls)
    cg.Callgraph.def_order

let l8_findings (cg : Callgraph.t) =
  (* BFS over every call/reference edge from the task entries; keep a
     predecessor map so the finding can show how the task reaches the
     global. *)
  let pred = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun k ->
      if Hashtbl.mem cg.Callgraph.defs k && not (Hashtbl.mem pred k) then begin
        Hashtbl.replace pred k None;
        Queue.add k q
      end)
    cg.Callgraph.task_entries;
  while not (Queue.is_empty q) do
    let key = Queue.pop q in
    let d = Hashtbl.find cg.Callgraph.defs key in
    List.iter
      (fun (c : Callgraph.call) ->
        match c.Callgraph.c_target with
        | Callgraph.Repo g
          when Hashtbl.mem cg.Callgraph.defs g && not (Hashtbl.mem pred g) ->
            Hashtbl.replace pred g (Some key);
            Queue.add g q
        | _ -> ())
      d.Callgraph.d_calls
  done;
  let rec chain key acc n =
    if n > 5 then "..." :: acc
    else
      match Hashtbl.find_opt pred key with
      | Some (Some p) -> chain p (p :: acc) (n + 1)
      | _ -> acc
  in
  let reachable =
    List.filter (fun k -> Hashtbl.mem pred k) cg.Callgraph.def_order
  in
  List.concat_map
    (fun key ->
      let d = Hashtbl.find cg.Callgraph.defs key in
      List.rev_map
        (fun (s : Callgraph.site) ->
          let g = Hashtbl.find cg.Callgraph.globals s.Callgraph.s_what in
          {
            rule = l8;
            f_pos = s.Callgraph.s_pos;
            message =
              Printf.sprintf
                "%s (%s) is top-level mutable state reachable from a Pool \
                 task (via %s)"
                g.Callgraph.g_key g.Callgraph.g_kind
                (String.concat " -> " (chain key [ key ] 0));
          })
        d.Callgraph.d_mut_refs)
    reachable

(* L10 walks the call graph from its roots: every definition in an
   executable's source tree, every top-level effect of the library
   ([let () = ...], keyed "<init@line>"), every value of a module packed
   as a first-class value, and every library definition an L10 waiver keeps
   ([kept]: what a kept definition uses is needed too).  Any reference
   counts as an edge, applied or not.  It reports the library definitions
   the walk misses and the optional parameters of reached ones that no
   reached call passes; a bare reference or alias may pass any of them.
   test/ is not a root. *)
type layout = { is_root : string -> bool; is_subject : string -> bool }

let under dirs file = List.exists (fun d -> Typed_load.under_root d file) dirs

let executable_dirs = [ "bin"; "bench"; "examples"; "perfbench" ]

let repo_layout =
  { is_root = under executable_dirs; is_subject = under [ "lib" ] }

(* Every source tree L10 needs loaded, whatever the command-line roots. *)
let program_dirs = "lib" :: executable_dirs

let is_synthetic key = String.contains key '<'

let is_effect key =
  Option.is_some (Waivers.find_sub key "<init@")

let l10_findings ~layout ~kept (cg : Callgraph.t) =
  let def key = Hashtbl.find cg.Callgraph.defs key in
  let file key = (def key).Callgraph.d_pos.Callgraph.p_file in
  let in_packed key =
    List.exists
      (fun m -> Rules.has_prefix ~prefix:(m ^ ".") key)
      cg.Callgraph.packed
  in
  let reached = Hashtbl.create 512 in
  let any_optional = Hashtbl.create 64 in
  let passed = Hashtbl.create 64 in
  let q = Queue.create () in
  let reach key =
    if not (Hashtbl.mem reached key) then begin
      Hashtbl.replace reached key ();
      Queue.add key q
    end
  in
  List.iter
    (fun key ->
      if in_packed key then Hashtbl.replace any_optional key ();
      if
        layout.is_root (file key)
        || (layout.is_subject (file key)
           && (is_effect key || kept (def key).Callgraph.d_pos))
        || in_packed key
      then reach key)
    cg.Callgraph.def_order;
  while not (Queue.is_empty q) do
    List.iter
      (fun (c : Callgraph.call) ->
        match c.Callgraph.c_target with
        | Callgraph.Repo g when Hashtbl.mem cg.Callgraph.defs g -> (
            reach g;
            match c.Callgraph.c_passed with
            | None -> Hashtbl.replace any_optional g ()
            | Some labels ->
                List.iter (fun l -> Hashtbl.replace passed (g, l) ()) labels)
        | _ -> ())
      (def (Queue.pop q)).Callgraph.d_calls
  done;
  List.concat_map
    (fun key ->
      let d = def key in
      if is_synthetic key || not (layout.is_subject (file key)) then []
      else if not (Hashtbl.mem reached key) then
        [
          {
            rule = l10;
            f_pos = d.Callgraph.d_pos;
            message =
              Printf.sprintf
                "%s is not reached from any executable, top-level effect or \
                 packed module"
                key;
          };
        ]
      else if Hashtbl.mem any_optional key then []
      else
        List.filter_map
          (fun l ->
            if Hashtbl.mem passed (key, l) then None
            else
              Some
                {
                  rule = l10;
                  f_pos = d.Callgraph.d_pos;
                  message =
                    Printf.sprintf
                      "optional argument ?%s of %s is never passed by reached \
                       code"
                      l key;
                })
          d.Callgraph.d_optionals)
    cg.Callgraph.def_order

let h0_findings missing =
  List.map
    (fun name ->
      {
        rule = h0;
        f_pos =
          { Callgraph.p_file = "lib/lint/hot_manifest.ml"; p_line = 1; p_col = 0 };
        message =
          Printf.sprintf
            "hot-path manifest entry %s does not resolve to any definition in \
             the analyzed .cmt set"
            name;
      })
    missing

let dedupe findings =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun f ->
      let k =
        ( f.rule.Rules.id,
          f.f_pos.Callgraph.p_file,
          f.f_pos.Callgraph.p_line,
          f.f_pos.Callgraph.p_col,
          f.message )
      in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    findings

let run ~check_manifest ~kept (cg : Callgraph.t) =
  let hot, missing = hot_set cg in
  let alloc_verdicts = propagate cg ~direct:direct_alloc_reason ~edge_ok:(fun _ -> true) in
  let raise_verdicts =
    propagate cg ~direct:direct_raise_reason
      ~edge_ok:(fun c -> not c.Callgraph.c_in_try)
  in
  dedupe
    (l7_findings cg hot alloc_verdicts
    @ l9_findings cg hot raise_verdicts
    @ l8_findings cg
    @ l10_findings ~layout:repo_layout ~kept cg
    @ if check_manifest then h0_findings missing else [])
