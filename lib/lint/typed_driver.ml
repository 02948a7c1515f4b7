(* Orchestration for the typed pass: load .cmt units, build the call graph,
   apply the typed rules, then filter findings through the same inline
   waiver comments and severity machinery as the syntactic pass.

   Waivers are read from the source files the findings point into
   ([source_root]/[file]); a finding whose source cannot be read simply
   keeps its diagnostic (missing sources should be loud, not silent). *)

let waivers_cache = Hashtbl.create 16

let waivers_for ~source_root file =
  match Hashtbl.find_opt waivers_cache (source_root, file) with
  | Some w -> w
  | None ->
      let w =
        match Driver.read_file (Filename.concat source_root file) with
        | source -> Some (Waivers.scan source)
        | exception Sys_error _ -> None
      in
      Hashtbl.add waivers_cache (source_root, file) w;
      w

let diagnostic_of ~severity_overrides (f : Typed_rules.finding) =
  {
    Diagnostic.rule = f.Typed_rules.rule.Rules.id;
    severity = Driver.severity_of ~overrides:severity_overrides f.Typed_rules.rule;
    file = f.Typed_rules.f_pos.Callgraph.p_file;
    line = f.Typed_rules.f_pos.Callgraph.p_line;
    col = f.Typed_rules.f_pos.Callgraph.p_col;
    message = f.Typed_rules.message;
    hint = f.Typed_rules.rule.Rules.hint;
  }

let waives ~source_root ~rule (pos : Callgraph.pos) =
  match waivers_for ~source_root pos.Callgraph.p_file with
  | None -> false
  | Some w -> Waivers.allows w ~rule ~line:pos.Callgraph.p_line

let waived ~source_root (f : Typed_rules.finding) =
  waives ~source_root ~rule:f.Typed_rules.rule.Rules.id f.Typed_rules.f_pos

(* Run the typed pass.  The call graph always spans the whole program
   under [build_dir] (lib/ and every executable's tree, L10's roots) plus
   [roots]; [roots] select which sources' findings are reported.  H0 checks
   the manifest only when lib/ is in the analyzed set (it is meaningless on
   a fixture tree). *)
let run ?(severity_overrides = []) ~build_dir ~source_root ~roots () =
  match
    Typed_load.load ~build_dir ~roots:(roots @ Typed_rules.program_dirs)
  with
  | Error e -> Error e
  | Ok units ->
      let cg = Callgraph.build units in
      let check_manifest =
        List.exists (fun u -> Typed_load.under_root "lib" u.Typed_load.u_source) units
      in
      let findings =
        Typed_rules.run ~check_manifest
          ~kept:(waives ~source_root ~rule:Typed_rules.l10.Rules.id)
          cg
      in
      let reported (f : Typed_rules.finding) =
        List.exists
          (fun r -> Typed_load.under_root r f.Typed_rules.f_pos.Callgraph.p_file)
          roots
      in
      let diagnostics =
        findings
        |> List.filter (fun f -> reported f && not (waived ~source_root f))
        |> List.map (diagnostic_of ~severity_overrides)
        |> List.sort Diagnostic.compare_by_position
      in
      Ok (units, Driver.summarize ~files:(List.length units) diagnostics)
