(* atum-lint acceptance tests.

   The fixtures under lint_fixtures/ mirror the repo layout (lib/smr/,
   lib/sim/, lib/apps/) so path-scoped rules apply exactly as they do
   on the real tree.  They are typed in memory, as dune would compile
   them, against the compiled libraries of this build.  The bad
   fixtures must trip every rule — this is the negative test
   demonstrating that the dune lint gate would fail a tree that
   reintroduces a violation — and the good fixtures must stay silent.

   The two-pass analysis gets the same treatment: entropy wrapped two
   calls deep across a module boundary must be flagged (E001), an
   allowlisted Prof_clock-style source must sanction its callers,
   S001/S002 must fire on the stateful fixture and stay silent on the
   atomic/local one, and ATUM_lint_state.json must round-trip
   deterministically. *)

module Driver = Atum_linter.Driver
module Allowlist = Atum_linter.Allowlist
module Diagnostic = Atum_linter.Diagnostic

(* The executable lives in _build/default/test/, next to the copied
   fixture tree and below the compiled libraries — resolve relative to
   it so the test works under both [dune runtest] and [dune exec]. *)
let test_dir = Filename.dirname Sys.executable_name

let fixture_root = Filename.concat test_dir "lint_fixtures"

(* Each library's compiled interfaces (lib/<d>/.atum_<d>.objs/byte),
   and the stdlib's unix, which in-memory sources are typed against. *)
let include_dirs =
  let lib = Filename.concat (Filename.dirname test_dir) "lib" in
  "+unix"
  :: List.filter Sys.file_exists
       (List.map
          (fun d -> Filename.concat lib (Printf.sprintf "%s/.atum_%s.objs/byte" d d))
          (List.sort String.compare (Array.to_list (Sys.readdir lib))))

let scan_sources ?allow ?allow_errors ?strict_allow ?references ~sources () =
  Driver.scan_sources ?allow ?allow_errors ?strict_allow ?references ~include_dirs ~sources ()

let fixtures =
  List.map
    (fun file ->
      (file, In_channel.with_open_bin (Filename.concat fixture_root file) In_channel.input_all))
    (Driver.list_files ~skip:[] ~suffixes:[ ".ml" ] ~root:fixture_root "lib")

let scan ?allow ?allow_errors ?strict_allow () =
  scan_sources ?allow ?allow_errors ?strict_allow ~sources:fixtures ()

(* The findings in one in-memory source [file]. *)
let check_source ~file src =
  let r = scan_sources ~sources:[ (file, src) ] () in
  match r.Driver.parse_errors with
  | (_, e) :: _ -> Error e
  | [] -> Ok (List.filter (fun d -> String.equal d.Diagnostic.file file) r.Driver.diagnostics)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let rules_hit ?(only_open = false) file r =
  let pool = if only_open then Driver.unsuppressed r else r.Driver.diagnostics in
  List.sort_uniq String.compare
    (List.filter_map
       (fun d ->
         if String.equal d.Diagnostic.file file then Some d.Diagnostic.rule else None)
       pool)

let test_bad_fixtures_trip_every_rule () =
  let r = scan () in
  Alcotest.(check (list string)) "no parse errors" []
    (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string))
    "protocol fixture: D003 twice, W001 once"
    [ "D003"; "W001" ]
    (rules_hit "lib/smr/bad_protocol.ml" r);
  Alcotest.(check (list string))
    "app fixture: D001, D002, F001, M001"
    [ "D001"; "D002"; "F001"; "M001" ]
    (rules_hit "lib/apps/bad_app.ml" r);
  Alcotest.(check bool) "gate would fail the build" false (Driver.ok r)

let test_good_fixture_is_clean () =
  let r = scan () in
  Alcotest.(check (list string)) "no parse errors" []
    (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string)) "sanctioned spellings produce nothing" []
    (rules_hit "lib/apps/good_app.ml" r);
  Alcotest.(check (list string)) "atomic/local state produces nothing" []
    (rules_hit "lib/sim/stateful_ok.ml" r)

(* --- effect propagation (E001) --------------------------------------- *)

let test_effect_propagation () =
  let r = scan () in
  Alcotest.(check (list string))
    "direct source: D001 plus E001 on the one-deep wrapper"
    [ "D001"; "E001" ]
    (rules_hit "lib/sim/entropy_core.ml" r);
  Alcotest.(check (list string))
    "two-plus calls deep, cross-module: E001 only"
    [ "E001" ]
    (rules_hit "lib/apps/deep_entropy.ml" r);
  let deep =
    List.filter
      (fun d -> String.equal d.Diagnostic.file "lib/apps/deep_entropy.ml")
      r.Driver.diagnostics
  in
  Alcotest.(check int) "both deep wrappers flagged" 2 (List.length deep);
  let chain_ok d =
    (* The witness chain must run all the way back to the source. *)
    contains ~sub:"Atum_sim.Entropy_core.raw_jitter" d.Diagnostic.message
    && contains ~sub:"Random.float" d.Diagnostic.message
  in
  Alcotest.(check bool) "witness chain names source and spelling" true
    (List.for_all chain_ok deep)

let test_sanctioned_wrapper_silences_callers () =
  (* Allowlisting the D001 source must also silence E001 in callers:
     the sanctioned wrapper story of lib/sim/prof_clock.ml. *)
  let allow, errs =
    Allowlist.of_string
      "D001:lib/sim/opt_clock.ml:8 # opt-in wall clock fixture, mirrors prof_clock"
  in
  Alcotest.(check (list string)) "allow parses" [] errs;
  let r = scan ~allow () in
  Alcotest.(check (list string)) "caller of sanctioned wrapper is silent" []
    (rules_hit "lib/apps/uses_clock.ml" r);
  Alcotest.(check (list string)) "wrapper's own D001 suppressed" []
    (rules_hit ~only_open:true "lib/sim/opt_clock.ml" r);
  (* Without the allow entry both fire. *)
  let r0 = scan () in
  Alcotest.(check (list string)) "unsanctioned: E001 on the caller" [ "E001" ]
    (rules_hit "lib/apps/uses_clock.ml" r0);
  Alcotest.(check (list string)) "unsanctioned: D001 at the source" [ "D001" ]
    (rules_hit "lib/sim/opt_clock.ml" r0)

(* OCaml resolves a name through the last [open] that binds it.  Both
   a bare name and a module path must: [Wall] and [Atum_sim.Clock]
   read the wall clock (D001), [Fixed] and [Atum_util.Clock] do not,
   and E001 follows whichever the caller really calls. *)
let test_last_open_wins () =
  let sources =
    [
      ("lib/sim/wall.ml", "let now () = Unix.gettimeofday ()\n");
      ("lib/util/fixed.ml", "let now () = 0.0\n");
      ("lib/sim/clock.ml", "let read () = Unix.gettimeofday ()\n");
      ("lib/util/clock.ml", "let read () = 0.0\n");
      ("lib/core/fixed_last.ml", "open Atum_sim.Wall\nopen Atum_util.Fixed\nlet stamp () = now ()\n");
      ("lib/core/wall_last.ml", "open Atum_util.Fixed\nopen Atum_sim.Wall\nlet stamp () = now ()\n");
      ("lib/core/util_last.ml", "open Atum_sim\nopen Atum_util\nlet stamp () = Clock.read ()\n");
      ("lib/core/sim_last.ml", "open Atum_util\nopen Atum_sim\nlet stamp () = Clock.read ()\n");
    ]
  in
  let r = scan_sources ~sources () in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  List.iter
    (fun (file, rules) -> Alcotest.(check (list string)) file rules (rules_hit file r))
    [
      ("lib/core/fixed_last.ml", []);
      ("lib/core/wall_last.ml", [ "E001" ]);
      ("lib/core/util_last.ml", []);
      ("lib/core/sim_last.ml", [ "E001" ]);
    ]

(* Files outside lib/ are modules named by their path: two main.ml
   files in two directories are both in the index, so each one's task
   closure resolves to its own function. *)
let test_main_files_stay_distinct () =
  let main step =
    Printf.sprintf
      "let %s () = ()\n\
       let start e = Atum_sim.Engine.every e ~period:1.0 (fun () -> %s (); true)\n"
      step step
  in
  let r =
    scan_sources ~sources:[ ("bench/main.ml", main "tick"); ("perfbench/main.ml", main "step") ] ()
  in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string)) "both task roots" [ "Bench.Main.tick"; "Perfbench.Main.step" ]
    r.Driver.state.Atum_linter.Effects.task_roots

(* A [let module] alias and a local open name the scheduler as well as
   a toplevel alias does: each closure below makes a task root. *)
let test_local_scheduler_spellings () =
  let sources =
    [
      ( "lib/core/aliased.ml",
        "let tick () = ()\n\
         let start e =\n\
        \  let module E = Atum_sim.Engine in\n\
        \  E.every e ~period:1.0 (fun () -> tick (); true)\n" );
      ( "lib/core/opened.ml",
        "let step () = ()\n\
         let start e = Atum_sim.(Engine.every e ~period:1.0 (fun () -> step (); true))\n" );
    ]
  in
  let r = scan_sources ~sources () in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string)) "both task roots"
    [ "Atum_core.Aliased.tick"; "Atum_core.Opened.step" ]
    r.Driver.state.Atum_linter.Effects.task_roots

(* --- domain safety (S001/S002) --------------------------------------- *)

let test_domain_safety_rules () =
  let r = scan () in
  Alcotest.(check (list string))
    "stateful fixture: S001 globals and an S002 task-reachable writer"
    [ "S001"; "S002" ]
    (rules_hit "lib/sim/stateful.ml" r);
  let stateful =
    List.filter
      (fun d -> String.equal d.Diagnostic.file "lib/sim/stateful.ml")
      r.Driver.diagnostics
  in
  let count rule =
    List.length (List.filter (fun d -> String.equal d.Diagnostic.rule rule) stateful)
  in
  Alcotest.(check int) "two S001 globals (ref + table)" 2 (count "S001");
  (* [bump] is task-reachable and writes [hits]; [record] writes
     [cache] but is never scheduled, so exactly one S002. *)
  Alcotest.(check int) "one S002 writer" 1 (count "S002")

let test_s001_catches_prefix_hashtbl_ext () =
  (* Regression for the seeded real-tree hit: the pre-fix
     Atum_util.Hashtbl_ext kept a plain [ref] counter bumped by every
     sorted traversal; sweeps call those helpers from engine tasks.
     S001 must flag the global and S002 its task-reachable writer. *)
  let sources =
    [
      ( "lib/util/hashtbl_ext.ml",
        "let sorts = ref 0\n\
         let sorts_performed () = !sorts\n\
         let sorted_keys ~cmp tbl =\n\
        \  incr sorts;\n\
        \  List.sort cmp (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n" );
      ( "lib/core/monitor.ml",
        "let sweep tbl = Atum_util.Hashtbl_ext.sorted_keys ~cmp:Int.compare tbl\n\
         let attach e tbl =\n\
        \  Atum_sim.Engine.every e ~period:1.0 (fun () -> ignore (sweep tbl); true)\n" );
    ]
  in
  let r = scan_sources ~sources () in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string))
    "pre-fix tree: S001 on the counter, S002 on the task-reachable writer"
    [ "S001"; "S002" ]
    (rules_hit "lib/util/hashtbl_ext.ml" r);
  let s001 =
    List.find
      (fun d -> String.equal d.Diagnostic.rule "S001")
      r.Driver.diagnostics
  in
  Alcotest.(check int) "flagged at the counter's definition line" 1 s001.Diagnostic.line

(* A function-local [hits] is not the module's [hits]: bumping it
   inside an engine task writes no global, so the global is S001 but
   there is no S002. *)
let test_local_shadows_global () =
  let sources =
    [
      ( "lib/sim/counter.ml",
        "let hits = ref 0\n\
         let total () = !hits\n\
         let start e =\n\
        \  Engine.every e ~period:1.0 (fun () ->\n\
        \      let hits = ref 0 in\n\
        \      incr hits;\n\
        \      !hits > 0)\n" );
    ]
  in
  let r = scan_sources ~sources () in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  Alcotest.(check (list string)) "S001 on the global, no S002" [ "S001" ]
    (rules_hit "lib/sim/counter.ml" r)

(* --- allowlist -------------------------------------------------------- *)

let test_allowlist_suppresses () =
  (* Suppressing every finding turns the gate green; the unused entry
     is reported as stale and the malformed one as an error.  E001
     findings disappear outright once their D001 source is suppressed
     (the sanctioned-wrapper rule), so their entries go stale too. *)
  let base = scan () in
  let e001s =
    List.length
      (List.filter
         (fun d -> String.equal d.Diagnostic.rule "E001")
         base.Driver.diagnostics)
  in
  let entries =
    List.map
      (fun d ->
        Printf.sprintf "%s:%s:%d # fixture exercises this rule on purpose"
          d.Diagnostic.rule d.Diagnostic.file d.Diagnostic.line)
      base.Driver.diagnostics
  in
  let allow_text =
    String.concat "\n"
      (entries
      @ [
          "D001:lib/apps/no_such_file.ml:3 # stale on purpose";
          "D002:lib/apps/bad_app.ml:12 this line has no hash reason";
        ])
  in
  let allow, allow_errors = Allowlist.of_string allow_text in
  Alcotest.(check int) "one malformed line" 1 (List.length allow_errors);
  let r = scan ~allow () in
  Alcotest.(check int) "all findings suppressed" 0 (List.length (Driver.unsuppressed r));
  Alcotest.(check int)
    "stale: the deliberate entry plus every vanished E001"
    (1 + e001s)
    (List.length r.Driver.stale_allows);
  (* Stale entries and suppressed findings alone don't fail the gate;
     malformed allowlist lines do. *)
  Alcotest.(check bool) "gate red on malformed allow line" false
    (Driver.ok { r with Driver.allow_errors });
  Alcotest.(check bool) "gate green once allow file is well-formed" true
    (Driver.ok r)

let test_wildcard_line () =
  let allow, errs = Allowlist.of_string "D003:lib/smr/bad_protocol.ml:* # whole file" in
  Alcotest.(check (list string)) "parses" [] errs;
  let r = scan ~allow () in
  Alcotest.(check (list string)) "only W001 left open in protocol fixture" [ "W001" ]
    (List.sort_uniq String.compare
       (List.filter_map
          (fun d ->
            if String.equal d.Diagnostic.file "lib/smr/bad_protocol.ml" then
              Some d.Diagnostic.rule
            else None)
          (Driver.unsuppressed r)))

let test_duplicate_entries_are_errors () =
  let allow_text =
    "D003:lib/smr/bad_protocol.ml:8 # first\n\
     D002:lib/apps/bad_app.ml:15 # fine\n\
     D003:lib/smr/bad_protocol.ml:8 # duplicate of the first\n"
  in
  let entries, errs = Allowlist.of_string allow_text in
  Alcotest.(check int) "all three entries parse" 3 (List.length entries);
  Alcotest.(check int) "one duplicate error" 1 (List.length errs);
  Alcotest.(check bool) "error names both lines" true
    (match errs with
    | [ e ] -> contains ~sub:"lint.allow:3" e && contains ~sub:"first at line 1" e
    | _ -> false);
  let r = scan ~allow:entries ~allow_errors:errs () in
  Alcotest.(check bool) "duplicates fail the gate" false (Driver.ok r)

let test_strict_allow_promotes_stale () =
  let allow, errs =
    Allowlist.of_string "D001:lib/apps/no_such_file.ml:3 # stale on purpose"
  in
  Alcotest.(check (list string)) "parses" [] errs;
  (* Suppress nothing real: every fixture finding stays open, so use a
     tree slice with no findings to isolate the stale behaviour. *)
  let sources = [ ("lib/apps/clean.ml", "let id x = x\n") ] in
  let lenient = scan_sources ~allow ~sources () in
  Alcotest.(check int) "entry is stale" 1 (List.length lenient.Driver.stale_allows);
  Alcotest.(check bool) "lenient: stale alone keeps the gate green" true
    (Driver.ok lenient);
  let strict = scan_sources ~allow ~strict_allow:true ~sources () in
  Alcotest.(check bool) "strict: stale fails the gate" false (Driver.ok strict)

(* --- artifacts -------------------------------------------------------- *)

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* A dune build context holds an empty interface for each executable.
   The lint lists only files whose source is in the checkout, so it
   scans the same files from the checkout and from inside _build. *)
let test_generated_interfaces_skipped () =
  let checkout = tmp_dir "atum_lint_checkout_test" in
  let ctx = Filename.concat checkout "_build/default" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.concat checkout "bin"; Filename.concat checkout "_build"; ctx;
      Filename.concat ctx "bin" ];
  let write path = Out_channel.with_open_bin path (fun oc -> output_string oc "") in
  List.iter
    (fun f ->
      write (Filename.concat checkout f);
      write (Filename.concat ctx f))
    [ "bin/main.ml"; "bin/lib.ml"; "bin/lib.mli" ];
  write (Filename.concat ctx "bin/main.mli");
  let list root = Driver.source_files ~skip:[] ~suffixes:[ ".ml"; ".mli" ] ~root [ "bin" ] in
  let expected = [ "bin/lib.ml"; "bin/lib.mli"; "bin/main.ml" ] in
  Alcotest.(check (list string)) "from the checkout" expected (list checkout);
  Alcotest.(check (list string)) "from the build context" expected (list ctx);
  Alcotest.(check (list string)) "from the build context as ." expected
    (list (Filename.concat ctx Filename.current_dir_name))

let test_json_artifact () =
  let r = scan () in
  let dir = tmp_dir "atum_lint_json_test" in
  let path = Driver.write_json ~dir r in
  Alcotest.(check string) "artifact name" (Filename.concat dir "ATUM_lint.json") path;
  match Atum_util.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Alcotest.failf "ATUM_lint.json is not valid JSON: %s" e
  | Ok (Atum_util.Json.Obj fields) ->
    Alcotest.(check bool) "has schema_version" true (List.mem_assoc "schema_version" fields);
    Alcotest.(check bool) "has violations" true (List.mem_assoc "violations" fields);
    Alcotest.(check bool) "has rules" true (List.mem_assoc "rules" fields)
  | Ok _ -> Alcotest.fail "ATUM_lint.json is not an object"

let test_state_inventory_artifact () =
  let r = scan () in
  let dir = tmp_dir "atum_lint_state_test" in
  let path = Driver.write_state_json ~dir r in
  Alcotest.(check string) "artifact name"
    (Filename.concat dir "ATUM_lint_state.json")
    path;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let first = read () in
  (* Byte-identical on re-emission: the inventory is a machine-read
     work-list and must not depend on hash order. *)
  let r2 = scan () in
  ignore (Driver.write_state_json ~dir r2);
  Alcotest.(check string) "deterministic across scans" first (read ());
  match Atum_util.Json.of_string first with
  | Error e -> Alcotest.failf "ATUM_lint_state.json is not valid JSON: %s" e
  | Ok (Atum_util.Json.Obj fields) -> (
    Alcotest.(check bool) "has schema_version" true (List.mem_assoc "schema_version" fields);
    Alcotest.(check bool) "has task_roots" true (List.mem_assoc "task_roots" fields);
    match List.assoc "globals" fields with
    | Atum_util.Json.List globals ->
      let find_global name =
        List.find_opt
          (fun g ->
            match g with
            | Atum_util.Json.Obj f -> (
              match List.assoc_opt "name" f with
              | Some (Atum_util.Json.String n) -> String.equal n name
              | _ -> false)
            | _ -> false)
          globals
      in
      let field g key =
        match g with Atum_util.Json.Obj f -> List.assoc_opt key f | _ -> None
      in
      (match find_global "Atum_sim.Stateful.hits" with
      | None -> Alcotest.fail "inventory misses Stateful.hits"
      | Some g ->
        Alcotest.(check bool) "hits flagged" true
          (field g "flagged" = Some (Atum_util.Json.Bool true));
        Alcotest.(check bool) "hits task-reachable" true
          (field g "task_reachable" = Some (Atum_util.Json.Bool true)));
      (match find_global "Atum_sim.Stateful_ok.total" with
      | None -> Alcotest.fail "inventory misses the atomic global"
      | Some g ->
        Alcotest.(check bool) "atomic exempt" true
          (field g "flagged" = Some (Atum_util.Json.Bool false));
        Alcotest.(check bool) "atomic kind recorded" true
          (field g "kind" = Some (Atum_util.Json.String "atomic")))
    | _ -> Alcotest.fail "globals is not a list")
  | Ok _ -> Alcotest.fail "ATUM_lint_state.json is not an object"

let test_sort_launders_traversal () =
  (* D002's core discrimination, straight from source strings: a
     traversal is fine exactly when a sort consumes it in the same
     expression. *)
  let check src expected_rules =
    match check_source ~file:"lib/apps/inline.ml" src with
    | Error e -> Alcotest.failf "parse error: %s" e
    | Ok ds ->
      Alcotest.(check (list string))
        src expected_rules
        (List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.rule) ds))
  in
  check "let ks t = Hashtbl.fold (fun k _ a -> k :: a) t []" [ "D002" ];
  check "let ks t = List.sort Int.compare (Hashtbl.fold (fun k _ a -> k :: a) t [])" [];
  check "let ks t = Hashtbl.fold (fun k _ a -> k :: a) t [] |> List.sort_uniq Int.compare" [];
  check "let ks t = Atum_util.Hashtbl_ext.sorted_keys ~cmp:Int.compare t" []

(* D003 covers the application, store and crypto layers as well as the
   protocol core, and no layer above them. *)
let test_d003_dirs () =
  let rules file =
    match check_source ~file "let ks l = List.sort compare l" with
    | Error e -> Alcotest.failf "parse error: %s" e
    | Ok ds -> List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.rule) ds)
  in
  List.iter
    (fun (file, expected) -> Alcotest.(check (list string)) file expected (rules file))
    [
      ("lib/apps/inline.ml", [ "D003" ]);
      ("lib/store/inline.ml", [ "D003" ]);
      ("lib/crypto/inline.ml", [ "D003" ]);
      ("lib/core/inline.ml", [ "D003" ]);
      ("lib/workload/inline.ml", []);
    ]

(* D003 judges the type a comparison is used at, however it is
   spelled: [=] between two computed lists of tuples (the shape of
   Ashare.indexes_converged) and [compare] at a type variable are
   polymorphic; [=] at int, float or string, or against [None], is
   not. *)
let test_d003_on_types () =
  let rules src =
    match check_source ~file:"lib/core/inline.ml" src with
    | Error e -> Alcotest.failf "type error: %s" e
    | Ok ds -> List.map (fun d -> d.Diagnostic.rule) ds
  in
  List.iter
    (fun (src, expected) -> Alcotest.(check (list string)) src expected (rules src))
    [
      ( "let converged a b =\n\
        \  let xs = List.map (fun i -> (i, float_of_int i)) a in\n\
        \  let ys = List.map (fun i -> (i, float_of_int i)) b in\n\
        \  xs = ys\n",
        [ "D003" ] );
      ("let order a b = compare a b\n", [ "D003" ]);
      ("let same (a : int) b = a = b\n", []);
      ("let same (a : float) b = a = b\n", []);
      ("let same (a : string) b = a = b\n", []);
      ("let unset (a : int option) = a = None\n", []);
    ]

(* M001 knows the artifact readers: dropping [Artifact.load]'s or
   [Artifact.read_json]'s [Error] hides a malformed file. *)
let test_ignored_artifact_read_flagged () =
  let r = scan () in
  let m001 =
    List.filter
      (fun d ->
        String.equal d.Diagnostic.file "lib/apps/bad_app.ml"
        && String.equal d.Diagnostic.rule "M001")
      r.Driver.diagnostics
  in
  Alcotest.(check bool) "ignore (Artifact.load p) in the fixture is flagged" true
    (List.exists (fun d -> contains ~sub:"Artifact.load" d.Diagnostic.message) m001);
  let rules src =
    match check_source ~file:"lib/apps/inline.ml" src with
    | Error e -> Alcotest.failf "parse error: %s" e
    | Ok ds -> List.map (fun d -> d.Diagnostic.rule) ds
  in
  Alcotest.(check (list string)) "read_json" [ "M001" ]
    (rules "let f p = ignore (Atum_sim.Artifact.read_json p)");
  Alcotest.(check (list string)) "a handled load is fine" []
    (rules "let f p = match Atum_sim.Artifact.load p with Ok a -> Some a | Error _ -> None")

(* --- I001: unused exports ---------------------------------------------- *)

(* [Atum_util.Thing] exports [v]; [users] are further linted sources
   and [references] files read for uses only.  Returns the exports
   left open, by name. *)
let unused_exports ?allow ?(references = []) ?(mli = "val v : int -> int\n")
    ?(ml = "let v x = x + 1\n") users =
  let sources = ("lib/util/thing.mli", mli) :: ("lib/util/thing.ml", ml) :: users in
  let r = scan_sources ?allow ~references ~sources () in
  Alcotest.(check (list string)) "no parse errors" [] (List.map fst r.Driver.parse_errors);
  List.filter_map
    (fun d ->
      if String.equal d.Diagnostic.rule "I001" then
        Some (Printf.sprintf "%s:%d" d.Diagnostic.file d.Diagnostic.line)
      else None)
    (Driver.unsuppressed r)

let test_i001_own_module_use_is_flagged () =
  Alcotest.(check (list string))
    "inner is used only by Thing itself; outer by another module"
    [ "lib/util/thing.mli:1" ]
    (unused_exports
       ~mli:"val inner : int -> int\nval outer : int -> int\n"
       ~ml:"let inner x = x + 1\nlet outer x = inner x\n"
       [ ("lib/core/user.ml", "let f = Atum_util.Thing.outer 3\n") ]);
  Alcotest.(check (list string)) "no user at all" [ "lib/util/thing.mli:1" ]
    (unused_exports [])

(* Every route by which another module can reach [Thing.v] keeps it. *)
let test_i001_routes_count_as_uses () =
  let used ?references users name =
    Alcotest.(check (list string)) name [] (unused_exports ?references users)
  in
  used [ ("lib/core/user.ml", "module T = Atum_util.Thing\nlet f = T.v 1\n") ] "module alias";
  used [ ("lib/core/user.ml", "open Atum_util.Thing\nlet f = v 1\n") ] "open";
  used [ ("lib/core/user.ml", "let f = Atum_util.Thing.(v 1)\n") ] "local open";
  used
    [
      ("lib/util/facade.ml", "include Thing\n");
      ("bin/main.ml", "let f = Atum_util.Facade.v 1\n");
    ]
    "include";
  used ~references:[ ("test/test_thing.ml", "let () = ignore (Atum_util.Thing.v 1)\n") ] []
    "a test file";
  used
    ~references:[ ("perfbench/workload.ml", "open Atum_util\nlet f = Thing.v 1\n") ]
    [] "a perfbench file"

let test_i001_doc_reference_is_not_a_use () =
  Alcotest.(check (list string)) "{!Thing.v} in doc comments only"
    [ "lib/util/thing.mli:1" ]
    (unused_exports
       [
         ("lib/core/user.mli", "(** Wraps {!Atum_util.Thing.v}. *)\nval f : int -> int\n");
         ("lib/core/user.ml", "(** Same as {!Atum_util.Thing.v}. *)\nlet f x = x\n");
         ("bin/main.ml", "let () = ignore (Atum_core.User.f 1)\n");
       ])

let test_i001_allowlisted () =
  let allow, errs =
    Allowlist.of_string "I001:lib/util/thing.mli:1 # the documented entry point"
  in
  Alcotest.(check (list string)) "parses" [] errs;
  Alcotest.(check (list string)) "suppressed" [] (unused_exports ~allow []);
  Alcotest.(check int) "and not stale" 0 (List.length (Allowlist.stale allow))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "bad fixtures trip every rule" `Quick
            test_bad_fixtures_trip_every_rule;
          Alcotest.test_case "ignored artifact read flagged" `Quick
            test_ignored_artifact_read_flagged;
          Alcotest.test_case "good fixtures are clean" `Quick test_good_fixture_is_clean;
          Alcotest.test_case "sort launders traversal" `Quick test_sort_launders_traversal;
          Alcotest.test_case "D003 directories" `Quick test_d003_dirs;
          Alcotest.test_case "D003 judges the type compared at" `Quick test_d003_on_types;
        ] );
      ( "effects",
        [
          Alcotest.test_case "entropy two calls deep is flagged" `Quick
            test_effect_propagation;
          Alcotest.test_case "sanctioned wrapper silences callers" `Quick
            test_sanctioned_wrapper_silences_callers;
          Alcotest.test_case "the last open wins" `Quick test_last_open_wins;
          Alcotest.test_case "main files stay distinct" `Quick test_main_files_stay_distinct;
          Alcotest.test_case "local alias and open make task roots" `Quick
            test_local_scheduler_spellings;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "S001/S002 on the stateful fixture" `Quick
            test_domain_safety_rules;
          Alcotest.test_case "pre-fix hashtbl_ext counter is caught" `Quick
            test_s001_catches_prefix_hashtbl_ext;
          Alcotest.test_case "a local shadowing a global is no write" `Quick
            test_local_shadows_global;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "an export only its own module uses is flagged" `Quick
            test_i001_own_module_use_is_flagged;
          Alcotest.test_case "alias, open, include, test and perfbench uses count" `Quick
            test_i001_routes_count_as_uses;
          Alcotest.test_case "a doc-comment reference is not a use" `Quick
            test_i001_doc_reference_is_not_a_use;
          Alcotest.test_case "an allowlisted export stays quiet" `Quick test_i001_allowlisted;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppresses with reasons" `Quick test_allowlist_suppresses;
          Alcotest.test_case "wildcard line" `Quick test_wildcard_line;
          Alcotest.test_case "duplicate entries are errors" `Quick
            test_duplicate_entries_are_errors;
          Alcotest.test_case "strict-allow promotes stale to failure" `Quick
            test_strict_allow_promotes_stale;
        ] );
      ( "files",
        [
          Alcotest.test_case "generated interfaces are skipped" `Quick
            test_generated_interfaces_skipped;
        ] );
      ( "json",
        [
          Alcotest.test_case "artifact shape" `Quick test_json_artifact;
          Alcotest.test_case "state inventory round-trips deterministically" `Quick
            test_state_inventory_artifact;
        ] );
    ]
