(* Load the .cmt files dune emits under _build into typedtrees for the typed
   pass.  Everything here returns data (rule L4); the bin/ driver prints.

   dune hides compilation artifacts in per-library dot-directories
   (lib/core/.disco_core.objs/byte/...), so unlike the source walker in
   Driver this one descends into dot-directories. *)

type unit_info = {
  u_modname : string;  (* compilation unit, e.g. "Disco_core__Forwarding" *)
  u_source : string;  (* repo-relative source path, e.g. "lib/core/forwarding.ml" *)
  u_structure : Typedtree.structure;
}

let rec walk_cmts acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry -> walk_cmts acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* [root] may be a directory prefix ("lib") or an exact source file
   ("lib/core/dataplane.ml"); both compare against the normalized
   cmt_sourcefile recorded at compile time. *)
let under_root root src =
  let root =
    if String.length root > 0 && Char.equal root.[String.length root - 1] '/'
    then String.sub root 0 (String.length root - 1)
    else root
  in
  String.equal root src || Rules.has_prefix ~prefix:(root ^ "/") src

let load_one path =
  match Cmt_format.read_cmt path with
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src ->
          Some
            {
              u_modname = cmt.Cmt_format.cmt_modname;
              u_source = Driver.normalize_path src;
              u_structure = str;
            }
      | _ -> None)
  (* disco-lint: allow L3 read_cmt raises Sys_error, End_of_file, Cmi_format.Error or Failure on stale or foreign artifacts; any of them just means "not a unit we can analyze" *)
  | exception _ -> None

(* All implementation units under [build_dir] whose source lives under one
   of [roots].  Deduplicates by source path, since byte/native subdirs can
   both hold a cmt of one source while two executables' main modules share
   one unit name (bench/main.ml and perfbench/main.ml are both
   Dune__exe__Main).  Sorted for a deterministic analysis order. *)
let load ~build_dir ~roots =
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then
    Error
      (Printf.sprintf
         "build directory %s does not exist (run `dune build @check` first)"
         build_dir)
  else
    let cmts = walk_cmts [] build_dir |> List.sort String.compare in
    let seen = Hashtbl.create 64 in
    let units =
      List.filter_map
        (fun p ->
          match load_one p with
          | Some u
            when (not (Hashtbl.mem seen u.u_source))
                 && List.exists (fun r -> under_root r u.u_source) roots ->
              Hashtbl.add seen u.u_source ();
              Some u
          | _ -> None)
        cmts
    in
    if units = [] then
      Error
        (Printf.sprintf "no .cmt files under %s for roots %s" build_dir
           (String.concat " " roots))
    else
      Ok
        (List.sort
           (fun a b ->
             match String.compare a.u_modname b.u_modname with
             | 0 -> String.compare a.u_source b.u_source
             | c -> c)
           units)

(* Per-root emptiness, for the CLI's missing-path diagnostics. *)
let roots_without_units ~units roots =
  List.filter
    (fun r -> not (List.exists (fun u -> under_root r u.u_source) units))
    roots
