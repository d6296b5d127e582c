(* atum-lint: the repo's determinism & protocol-safety linter.

   Reads the typed tree (the .cmt/.cmti that `dune build @check`
   writes) of every .ml and .mli under the given directories (default:
   lib bin) and enforces the rule set in LINT.md.  Exits non-zero on
   any violation that is not suppressed by lint.allow, so a dune rule
   can gate `dune runtest` on a clean tree. *)

module Driver = Atum_linter.Driver

let () =
  let root = ref "." in
  let allow = ref "lint.allow" in
  let json_dir = ref "" in
  let verbose = ref false in
  let strict_allow = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root to scan from (default .)");
      ( "--allow",
        Arg.Set_string allow,
        "FILE allowlist file, relative to the root (default lint.allow)" );
      ( "--json",
        Arg.Set_string json_dir,
        "DIR also write ATUM_lint.json and ATUM_lint_state.json into DIR" );
      ("--verbose", Arg.Set verbose, " print allowlisted findings too");
      ( "--strict-allow",
        Arg.Set strict_allow,
        " fail on stale lint.allow entries too (CI mode: the allowlist cannot rot)" );
    ]
  in
  let usage =
    "atum_lint [--root DIR] [--allow FILE] [--json DIR] [--strict-allow] [dirs...]"
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  let dirs = match List.rev !dirs with [] -> [ "lib"; "bin" ] | ds -> ds in
  let allow_file =
    if Filename.is_relative !allow then Filename.concat !root !allow else !allow
  in
  let r = Driver.run ~strict_allow:!strict_allow ~root:!root ~dirs ~allow_file () in
  Driver.print_human ~verbose:!verbose Format.std_formatter r;
  if not (String.equal !json_dir "") then begin
    if not (Sys.file_exists !json_dir) then Sys.mkdir !json_dir 0o755;
    let path = Driver.write_json ~dir:!json_dir r in
    Printf.printf "json             : wrote %s\n" path;
    let spath = Driver.write_state_json ~dir:!json_dir r in
    Printf.printf "json             : wrote %s\n" spath
  end;
  exit (if Driver.ok r then 0 else 1)
