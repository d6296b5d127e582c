(* Directory scanning, the two-pass analysis pipeline, allowlist
   application and reporting for atum-lint.  Shared by
   [bin/atum_lint.ml] (the build gate) and the [atum-cli lint]
   subcommand.

   Pass 1 parses every file once; the per-file syntactic rules
   ([Engine]) run on each parse tree while [Index] accumulates the
   value index and call graph.  Pass 2 ([Effects]) then derives the
   interprocedural findings (E001/S001/S002) and the machine-readable
   state inventory from the whole-repo index, and [Exports] the unused
   exports (I001). *)

let schema_version = 2

type result = {
  files_scanned : int;
  diagnostics : Diagnostic.t list; (* sorted; includes suppressed *)
  parse_errors : (string * string) list; (* file, message *)
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

(* The shared pipeline over already-read sources: parse once, run the
   per-file pass, build the index, run the repo-wide pass, apply the
   allowlist.  [sources] are the linted .ml and .mli files;
   [references] are further .ml files read only for the uses that keep
   an export alive (I001).  Both must be deterministic in order. *)
let scan_sources ?(allow = ([] : Allowlist.t)) ?(allow_errors = []) ?(strict_allow = false)
    ?(references = []) ~sources () =
  let parsed = ref [] in
  let interfaces = ref [] in
  let diags = ref [] in
  let parse_errors = ref [] in
  let parse parser (file, source) =
    match Engine.parse parser ~file source with
    | Ok tree -> Some (file, tree)
    | Error msg ->
      parse_errors := (file, msg) :: !parse_errors;
      None
  in
  List.iter
    (fun ((file, _) as src) ->
      if Filename.check_suffix file ".mli" then
        Option.iter
          (fun i -> if Config.in_lib file then interfaces := i :: !interfaces)
          (parse Parse.interface src)
      else
        Option.iter
          (fun ((_, structure) as p) ->
            parsed := p :: !parsed;
            diags := Engine.check_structure ~file structure :: !diags)
          (parse Parse.implementation src))
    sources;
  let parsed = List.rev !parsed in
  let references = parsed @ List.filter_map (parse Parse.implementation) references in
  let index = Index.build parsed in
  let effect_diags, state = Effects.analyze ~index ~allow in
  let export_diags =
    Exports.diagnostics index ~interfaces:(List.rev !interfaces) ~references
  in
  let diagnostics =
    List.sort Diagnostic.compare (List.concat (effect_diags :: export_diags :: !diags))
  in
  List.iter (fun d -> Allowlist.suppress allow d) diagnostics;
  {
    files_scanned = List.length sources;
    diagnostics;
    parse_errors = List.rev !parse_errors;
    allow_errors;
    stale_allows = Allowlist.stale allow;
    strict_allow;
    state;
  }

(* Lints [dirs]; the rest of [Config.reference_dirs] is read for uses
   only. *)
let scan ?allow ?allow_errors ?strict_allow ~root ~dirs () =
  let read files = List.map (fun file -> (file, Engine.read_file ~root ~file)) files in
  let files = List.concat_map (list_files ~skip:[] ~suffixes:[ ".ml"; ".mli" ] ~root) dirs in
  let references =
    List.filter
      (fun f -> not (List.mem f files))
      (List.concat_map
         (list_files ~skip:Config.reference_excluded ~suffixes:[ ".ml" ] ~root)
         Config.reference_dirs)
  in
  scan_sources ?allow ?allow_errors ?strict_allow ~references:(read references)
    ~sources:(read files) ()

let run ?strict_allow ~root ~dirs ~allow_file () =
  let allow, allow_errors = Allowlist.load allow_file in
  scan ~allow ~allow_errors ?strict_allow ~root ~dirs ()

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
  List.iter (fun (f, m) -> Format.fprintf fmt "%s: parse error: %s@." f m) r.parse_errors;
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
