(* disco-lint: invariant checker for the disco tree.

   Default mode parses every .ml under the given roots (default: lib bin
   bench) and enforces the syntactic catalogue in Lint.Rules (L1-L6).
   With --typed it instead loads the .cmt files dune emitted under
   --build-dir, builds the interprocedural call graph and enforces the
   typed catalogue in Lint.Typed_rules (L7 alloc discipline, L8 domain
   escape, L9 exception hygiene, L10 unreached code, H0 manifest
   integrity).  The call graph always spans every library and executable
   under --build-dir; the roots select which files' findings are shown.

   Exits 1 iff any error-severity diagnostic is reported, 2 on usage
   errors, including a root that does not exist or matches no
   .ml/.cmt files (a typo'd path must not silently pass). *)

let usage =
  "disco-lint [--typed] [--build-dir DIR] [--json] [--warn RULE] [--rules] \
   [DIR|FILE]..."

let print_rule r =
  Printf.printf "%s %-32s %s\n    why:  %s\n    hint: %s\n" r.Lint.Rules.id
    ("(" ^ r.Lint.Rules.title ^ ")")
    (Lint.Diagnostic.severity_label r.Lint.Rules.default_severity)
    r.Lint.Rules.rationale r.Lint.Rules.hint

let print_catalogue () =
  print_endline "Syntactic pass (default):";
  List.iter print_rule Lint.Rules.catalogue;
  print_endline "";
  print_endline "Typed pass (--typed, needs `dune build @check` artifacts):";
  List.iter print_rule Lint.Typed_rules.catalogue

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("disco-lint: " ^ s); exit 2) fmt

let () =
  let json = ref false in
  let typed = ref false in
  let show_rules = ref false in
  let build_dir = ref "_build/default" in
  let source_root = ref "." in
  let overrides = ref [] in
  let roots = ref [] in
  let demote rule =
    match (Lint.Rules.find rule, Lint.Typed_rules.find rule) with
    | None, None -> fail "unknown rule %s" rule
    | _ -> overrides := (rule, Lint.Diagnostic.Warning) :: !overrides
  in
  let spec =
    [
      ("--typed", Arg.Set typed, " run the typed (.cmt-based) pass: L7-L10/H0");
      ( "--build-dir",
        Arg.Set_string build_dir,
        "DIR where dune put the .cmt files (default: _build/default)" );
      ( "--source-root",
        Arg.Set_string source_root,
        "DIR sources live under, for waiver comments (default: .)" );
      ("--json", Arg.Set json, " emit a machine-readable JSON summary");
      ("--warn", Arg.String demote, "RULE demote RULE from error to warning");
      ("--rules", Arg.Set show_rules, " print the rule catalogues and exit");
    ]
  in
  Arg.parse spec (fun d -> roots := d :: !roots) usage;
  if !show_rules then begin
    print_catalogue ();
    exit 0
  end;
  let explicit_roots = !roots <> [] in
  let roots =
    match List.rev !roots with [] -> [ "lib"; "bin"; "bench" ] | r -> r
  in
  (* A requested path that does not exist is an error in both modes (in
     typed mode roots scope cmt sources, which only exist for real paths). *)
  if explicit_roots then
    List.iter
      (fun r -> if not (Sys.file_exists r) then fail "no such path: %s" r)
      roots;
  let summary =
    if !typed then begin
      match
        Lint.Typed_driver.run ~severity_overrides:!overrides
          ~build_dir:!build_dir ~source_root:!source_root ~roots ()
      with
      | Error e -> fail "%s" e
      | Ok (units, summary) ->
          (match Lint.Typed_load.roots_without_units ~units roots with
          | [] -> ()
          | missing ->
              fail "no .cmt files found for %s (run `dune build @check`?)"
                (String.concat " " missing));
          summary
    end
    else begin
      let files = Lint.Driver.collect_ml_files roots in
      List.iter
        (fun r ->
          let has file = Lint.Typed_load.under_root r (Lint.Driver.normalize_path file) in
          if not (List.exists has files) then fail "no .ml files under %s" r)
        roots;
      Lint.Driver.lint_files ~severity_overrides:!overrides files
    end
  in
  if !json then print_endline (Lint.Driver.summary_to_json summary)
  else begin
    List.iter
      (fun d -> print_endline (Lint.Diagnostic.to_human d))
      summary.Lint.Driver.diagnostics;
    Printf.printf "disco-lint%s: %d %s checked, %d errors, %d warnings\n"
      (if !typed then " --typed" else "")
      summary.Lint.Driver.files
      (if !typed then "units" else "files")
      summary.Lint.Driver.errors summary.Lint.Driver.warnings
  end;
  exit (if summary.Lint.Driver.errors > 0 then 1 else 0)
