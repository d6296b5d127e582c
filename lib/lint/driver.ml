(* Reading the typed trees, the two-pass analysis pipeline, allowlist
   application and reporting for atum-lint ([bin/atum_lint.ml]).

   Input is the compiler's: the .cmt/.cmti files dune writes for every
   module ([dune build @check]), or sources typed in memory
   ([scan_sources]).  Pass 1 runs the per-file rules ([Engine]) on each
   typed tree while [Index] accumulates the value index, the call graph
   and the uses of every module.  Pass 2 ([Effects]) then derives the
   interprocedural findings (E001/S001/S002) and the machine-readable
   state inventory from the whole-repo index, and [Exports] the unused
   exports (I001). *)

let schema_version = 2

type result = {
  files_scanned : int;
  diagnostics : Diagnostic.t list; (* sorted; includes suppressed *)
  parse_errors : (string * string) list; (* file, why it has no typed tree *)
  allow_errors : string list; (* malformed or duplicate lint.allow lines *)
  stale_allows : Allowlist.entry list;
  strict_allow : bool; (* stale entries fail the gate *)
  state : Effects.state; (* the module-level mutable-state inventory *)
}

let unsuppressed r =
  List.filter (fun d -> Option.is_none d.Diagnostic.suppressed) r.diagnostics

let ok r =
  unsuppressed r = [] && r.parse_errors = [] && r.allow_errors = []
  && ((not r.strict_allow) || r.stale_allows = [])

(* Deterministic recursive listing of the files under [dir] (relative
   to [root]) whose name ends in one of [suffixes], skipping build and
   VCS artifacts and the directories in [skip]. *)
let rec list_files ~skip ~suffixes ~root dir =
  let abs = Filename.concat root dir in
  if not (Sys.file_exists abs && Sys.is_directory abs) || List.mem dir skip then []
  else begin
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        if String.equal name "_build" || String.equal name ".git" then acc
        else begin
          let rel = dir ^ "/" ^ name in
          if Sys.is_directory (Filename.concat root rel) then
            acc @ list_files ~skip ~suffixes ~root rel
          else if List.exists (Filename.check_suffix name) suffixes then acc @ [ rel ]
          else acc
        end)
      [] entries
  end

let message exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) -> String.trim (Format.asprintf "%a" Location.print_report report)
  | _ -> Printexc.to_string exn

(* The shared pipeline over typed units: [sources] are linted,
   [references] read only for the uses that keep an export alive
   (I001), [errors] the files that could not be read as typed trees.
   [files_scanned] counts sources with and without a typed tree. *)
let analyze ?(allow = ([] : Allowlist.t)) ?(allow_errors = []) ?(strict_allow = false)
    ~files_scanned ~errors ~sources ~references () =
  let index = Index.create () in
  let diags = ref [] and interfaces = ref [] and errors = ref errors in
  let visit ~linted (u : Index.unit_) =
    match
      let s = Index.scope u in
      (match u.Index.tree with
      | Index.Impl str when linted -> diags := Engine.check s str :: !diags
      | Index.Intf sg when linted && Config.in_lib u.Index.file ->
        interfaces := (s, sg) :: !interfaces
      | _ -> ());
      Index.ingest index ~linted s
    with
    | () -> ()
    | exception exn -> errors := (u.Index.file, message exn) :: !errors
  in
  List.iter (visit ~linted:true) sources;
  List.iter (visit ~linted:false) references;
  let effect_diags, state = Effects.analyze ~index ~allow in
  let export_diags = Exports.diagnostics index ~interfaces:(List.rev !interfaces) in
  let diagnostics =
    List.sort Diagnostic.compare (List.concat (effect_diags :: export_diags :: !diags))
  in
  List.iter (fun d -> Allowlist.suppress allow d) diagnostics;
  {
    files_scanned;
    diagnostics;
    parse_errors = List.sort compare !errors;
    allow_errors;
    stale_allows = Allowlist.stale allow;
    strict_allow;
    state;
  }

(* --- typed trees dune wrote ------------------------------------------ *)

(* The typed tree of [file] from [cmt], read under the build directory
   [build].  Its environments are rebuilt from their summaries over the
   load path the module was compiled with; [loaded] is the load path
   in force, shared by the units of one scan. *)
let unit_of_cmt ~build ~loaded ~file (cmt : Cmt_format.cmt_infos) =
  let load_path =
    List.map
      (fun d -> if Filename.is_relative d then Filename.concat build d else d)
      cmt.cmt_loadpath
  in
  let env e =
    if not (List.equal String.equal load_path !loaded) then begin
      Load_path.init ~auto_include:Load_path.no_auto_include load_path;
      Envaux.reset_cache ();
      loaded := load_path
    end;
    Envaux.env_of_only_summary e
  in
  match cmt.cmt_annots with
  | Implementation str -> Ok { Index.file; modname = cmt.cmt_modname; tree = Index.Impl str; env }
  | Interface sg -> Ok { Index.file; modname = cmt.cmt_modname; tree = Index.Intf sg; env }
  | _ -> Error (file, "the typed tree is partial: the module does not compile")

(* The typed tree of each of [files] (relative to [root]).  dune keeps
   them under _build/default of a checkout, or in the root itself when
   the lint runs inside the build directory; one that is missing, or
   older than its source, is an error. *)
let load ~root ~loaded files =
  let build =
    let b = Filename.concat root "_build/default" in
    if Sys.file_exists b then b else root
  in
  let trees = Hashtbl.create 256 in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          let cmt = Cmt_format.read_cmt (Filename.concat build path) in
          Option.iter (fun src -> Hashtbl.replace trees src cmt) cmt.cmt_sourcefile)
        (list_files ~skip:[] ~suffixes:[ ".cmt"; ".cmti" ] ~root:build dir))
    (List.sort_uniq String.compare
       (List.map (fun f -> List.hd (String.split_on_char '/' f)) files));
  List.partition_map
    (fun file ->
      match Hashtbl.find_opt trees file with
      | Some cmt
        when Option.equal String.equal cmt.Cmt_format.cmt_source_digest
               (Some (Digest.file (Filename.concat root file))) -> (
        match unit_of_cmt ~build ~loaded ~file cmt with Ok u -> Left u | Error e -> Right e)
      | Some _ -> Right (file, "the typed tree is older than the source; run dune build @check")
      | None -> Right (file, "no typed tree; run dune build @check"))
    files

(* Lints [dirs] from the typed trees under [root]; the rest of
   [Config.reference_dirs] is read for uses only. *)
let scan ?allow ?allow_errors ?strict_allow ~root ~dirs () =
  let loaded = ref [] in
  let files = List.concat_map (list_files ~skip:[] ~suffixes:[ ".ml"; ".mli" ] ~root) dirs in
  let references =
    List.filter
      (fun f -> not (List.mem f files))
      (List.concat_map
         (list_files ~skip:Config.reference_excluded ~suffixes:[ ".ml" ] ~root)
         Config.reference_dirs)
  in
  let sources, errors = load ~root ~loaded files in
  let references, reference_errors = load ~root ~loaded references in
  analyze ?allow ?allow_errors ?strict_allow ~files_scanned:(List.length files)
    ~errors:(errors @ reference_errors) ~sources ~references ()

let run ?strict_allow ~root ~dirs ~allow_file () =
  let allow, allow_errors = Allowlist.load allow_file in
  scan ~allow ~allow_errors ?strict_allow ~root ~dirs ()

(* --- sources typed in memory ------------------------------------------ *)

(* dune's naming: lib/<d>/m.ml is module [M] of the wrapped library
   [Atum_<d>], compiled as [Atum_<d>__M] with its library open; any
   other file is an executable's module [Dune__exe__M]. *)
let library file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ -> Some ("Atum_" ^ dir)
  | _ -> None

let module_of file = String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let modname file =
  match library file with
  | Some lib -> lib ^ "__" ^ module_of file
  | None -> "Dune__exe__" ^ module_of file

(* Types [sources] (file, text) as dune would compile them, against
   the compiled modules in [include_dirs] (for example a library's
   .objs/byte): each library of [sources] extends the compiled library
   of the same name, if any.  A file is typed once every module it
   names is; the ones that never type are errors. *)
let type_sources ~include_dirs sources =
  ignore (Warnings.parse_options false "-a");
  Clflags.include_dirs := include_dirs;
  Compmisc.init_path ();
  let initial = Compmisc.initial_env () in
  let typed = ref [] (* library, module, unit name, signature *) in
  let compiled lib =
    match Env.lookup_module ~loc:Location.none (Longident.Lident lib) initial with
    | _, { Types.md_type = Mty_signature sg; _ } -> sg
    | _ | (exception _) -> []
  in
  (* Library [lib]: the compiled modules plus an alias to each typed one. *)
  let wrapper lib =
    let own =
      List.filter_map
        (fun (l, name, m, _) -> if String.equal l lib then Some (name, m) else None)
        !typed
    in
    let alias (name, m) =
      Types.Sig_module
        ( Ident.create_local name, Mp_absent,
          { md_type = Mty_alias (Pident (Ident.create_persistent m)); md_attributes = [];
            md_loc = Location.none; md_uid = Types.Uid.internal_not_actually_unique },
          Trec_not, Exported )
    in
    Types.Mty_signature
      (List.filter
         (function
           | Types.Sig_module (id, _, _, _, _) -> not (List.mem_assoc (Ident.name id) own)
           | _ -> true)
         (compiled lib)
      @ List.map alias own)
  in
  let env_for file =
    let env =
      List.fold_left
        (fun env (_, _, m, sg) ->
          Env.add_module (Ident.create_persistent m) Mp_present (Mty_signature sg) env)
        initial !typed
    in
    let libs = List.sort_uniq String.compare (List.filter_map library (List.map fst sources)) in
    let env =
      List.fold_left
        (fun env lib -> Env.add_module (Ident.create_persistent lib) Mp_present (wrapper lib) env)
        env libs
    in
    match library file with
    | Some lib -> (
      match Env.open_signature Fresh (Pident (Ident.create_persistent lib)) env with
      | Ok env -> env
      | Error _ -> env)
    | None -> env
  in
  let type_one (file, text) =
    let lexbuf = Lexing.from_string text in
    Location.init lexbuf file;
    let env = env_for file in
    let unit_ tree = { Index.file; modname = modname file; tree; env = Fun.id } in
    if Filename.check_suffix file ".mli" then
      unit_ (Index.Intf (Typemod.transl_signature env (Parse.interface lexbuf)))
    else begin
      let str, sg, _, _, _ = Typemod.type_structure env (Parse.implementation lexbuf) in
      Option.iter
        (fun lib -> typed := (lib, module_of file, modname file, sg) :: !typed)
        (library file);
      unit_ (Index.Impl str)
    end
  in
  let rec rounds units pending =
    let units, failed =
      List.fold_left
        (fun (units, failed) src ->
          match type_one src with
          | u -> (u :: units, failed)
          | exception exn -> (units, (src, message exn) :: failed))
        (units, []) pending
    in
    if failed <> [] && List.length failed < List.length pending then
      rounds units (List.rev_map fst failed)
    else
      ( List.filter_map
          (fun (file, _) -> List.find_opt (fun u -> String.equal u.Index.file file) units)
          sources,
        List.map (fun ((file, _), m) -> (file, m)) failed )
  in
  rounds [] sources

(* The pipeline over in-memory [sources] and [references], (file, text)
   pairs typed by [type_sources]. *)
let scan_sources ?allow ?allow_errors ?strict_allow ?(include_dirs = []) ?(references = [])
    ~sources () =
  let units, errors = type_sources ~include_dirs (sources @ references) in
  let is_source u = List.mem_assoc u.Index.file sources in
  analyze ?allow ?allow_errors ?strict_allow ~files_scanned:(List.length sources) ~errors
    ~sources:(List.filter is_source units)
    ~references:(List.filter (fun u -> not (is_source u)) units)
    ()

(* --- reporting ------------------------------------------------------ *)

let summary_counts r =
  let total = List.length r.diagnostics in
  let open_ = List.length (unsuppressed r) in
  (total, total - open_, open_)

let print_human ?(verbose = false) fmt r =
  List.iter
    (fun d ->
      if verbose || Option.is_none d.Diagnostic.suppressed then
        Format.fprintf fmt "%s@." (Diagnostic.to_string d))
    r.diagnostics;
  List.iter (fun (f, m) -> Format.fprintf fmt "%s: %s@." f m) r.parse_errors;
  List.iter (fun m -> Format.fprintf fmt "%s@." m) r.allow_errors;
  List.iter
    (fun e ->
      Format.fprintf fmt "lint.allow:%d: stale entry (matched nothing%s): %s@."
        e.Allowlist.source_line
        (if r.strict_allow then "; fails under --strict-allow" else "")
        (Allowlist.entry_to_string e))
    r.stale_allows;
  let total, suppressed, open_ = summary_counts r in
  Format.fprintf fmt "atum-lint: %d file%s, %d finding%s (%d allowlisted, %d open)@."
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    total
    (if total = 1 then "" else "s")
    suppressed open_

let to_json r =
  let open Atum_util.Json in
  let total, suppressed, open_ = summary_counts r in
  Obj
    [
      ("schema_version", Int schema_version);
      ("cmd", String "lint");
      ("files_scanned", Int r.files_scanned);
      ("strict_allow", Bool r.strict_allow);
      ( "rules",
        List
          (List.map
             (fun (rule : Config.rule) ->
               Obj
                 [
                   ("id", String rule.Config.id);
                   ("severity", String (Config.severity_to_string rule.Config.severity));
                   ("summary", String rule.Config.summary);
                 ])
             Config.rules) );
      ("violations", List (List.map Diagnostic.to_json r.diagnostics));
      ( "parse_errors",
        List
          (List.map
             (fun (f, m) -> Obj [ ("file", String f); ("message", String m) ])
             r.parse_errors) );
      ( "stale_allow",
        List (List.map (fun e -> String (Allowlist.entry_to_string e)) r.stale_allows) );
      ( "summary",
        Obj [ ("total", Int total); ("suppressed", Int suppressed); ("open", Int open_) ] );
    ]

let write_json ~dir r =
  let path = Filename.concat dir "ATUM_lint.json" in
  Atum_util.Json.write_file ~path (to_json r);
  path

(* The state inventory is its own artifact: it is the work-list for
   the multicore migration and is consumed by tooling, so it must stay
   byte-identical across runs on an unchanged tree. *)
let write_state_json ~dir r =
  let path = Filename.concat dir "ATUM_lint_state.json" in
  Atum_util.Json.write_file ~path (Effects.state_to_json r.state);
  path
