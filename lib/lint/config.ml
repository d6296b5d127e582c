(* Repo-specific rule configuration for atum-lint.

   The linter is not a general-purpose OCaml checker: every list below
   names things that exist in *this* repository (wire variants,
   Result-returning checkers, the sanctioned RNG).  Keeping the
   configuration in one module makes the rule set reviewable and keeps
   the engine free of string literals. *)

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type rule = { id : string; severity : severity; summary : string }

let rules =
  [
    {
      id = "D001";
      severity = Error;
      summary =
        "wall-clock or OS entropy in lib/ (Unix.gettimeofday, Sys.time, Random.*): \
         simulated time and Atum_util.Rng are the only admissible sources";
    };
    {
      id = "D002";
      severity = Warning;
      summary =
        "Hashtbl.iter/Hashtbl.fold whose result is not passed through a sort in the \
         same expression: bucket order is not deterministic";
    };
    {
      id = "D003";
      severity = Error;
      summary =
        "polymorphic compare/=/<> on structured data in lib/smr, lib/core, \
         lib/overlay: protocol state needs module-specific compare/equal";
    };
    {
      id = "F001";
      severity = Error;
      summary = "float-literal equality (x = 0.0): use Float.equal or a sign/epsilon test";
    };
    {
      id = "M001";
      severity = Warning;
      summary = "ignore of a Result-returning checker: the error path is silently dropped";
    };
    {
      id = "W001";
      severity = Error;
      summary =
        "catch-all _ arm in a match over a wire-message variant: new constructors \
         must fail to compile, not vanish into a default case";
    };
    {
      id = "E001";
      severity = Error;
      summary =
        "transitive impurity: a lib/ function reaches wall-clock or OS entropy \
         (a D001 source) through the intra-repo call graph; the wrapper is as \
         nondeterministic as the call it hides";
    };
    {
      id = "S001";
      severity = Error;
      summary =
        "module-level mutable state in lib/ (toplevel ref, Hashtbl.create, \
         Buffer.create, Array.make, mutable-record literal): shared across every \
         run in the process and across domains once sweeps go parallel; make it \
         per-instance or Atomic.t";
    };
    {
      id = "S002";
      severity = Error;
      summary =
        "cross-domain race candidate: a function reachable from an Engine task \
         closure writes a module-level mutable global; under parallel sweeps two \
         domains race on it";
    };
  ]

let find_rule id = List.find (fun r -> String.equal r.id id) rules

(* --- path scopes --------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_lib path = starts_with ~prefix:"lib/" path

let protocol_dirs =
  [ "lib/smr/"; "lib/core/"; "lib/overlay/"; "lib/apps/"; "lib/store/"; "lib/crypto/" ]

let in_protocol path = List.exists (fun d -> starts_with ~prefix:d path) protocol_dirs

(* --- D001: determinism escape hatches ------------------------------ *)

(* Exact identifiers that read the wall clock or per-process entropy.
   Any use of the stdlib [Random] module is banned wholesale: seeded
   randomness must flow through [Atum_util.Rng]. *)
let banned_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime"; "Sys.time" ]

let banned_prefixes = [ "Random."; "Stdlib.Random." ]

(* --- D002: order-dependent traversals ------------------------------ *)

let hashtbl_traversals = [ "Hashtbl.iter"; "Hashtbl.fold"; "Stdlib.Hashtbl.iter"; "Stdlib.Hashtbl.fold" ]

(* Functions that impose a total order on (or deterministically
   consume) whatever flowed into them; a Hashtbl traversal nested in
   their arguments is considered laundered. *)
let sort_functions =
  [
    "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort"; "Array.sort";
    "Hashtbl_ext.sorted_bindings"; "Hashtbl_ext.sorted_keys"; "Hashtbl_ext.sorted_iter";
    "Atum_util.Hashtbl_ext.sorted_bindings"; "Atum_util.Hashtbl_ext.sorted_keys";
    "Atum_util.Hashtbl_ext.sorted_iter";
  ]

(* --- D003: polymorphic comparison ---------------------------------- *)

let eq_operators = [ "="; "<>"; "=="; "!=" ]

let polymorphic_compare_idents = [ "compare"; "Stdlib.compare"; "Pervasives.compare" ]

(* --- M001: ignored Results ----------------------------------------- *)

(* Final path components of functions in this repo that return a
   [Result.t]; [ignore (f ...)] on any of these drops an error path.
   [load] and [read_json] are the artifact readers ([Artifact.load],
   [Artifact.read_json]) and [Snapshot.load]. *)
let result_returning =
  [ "check_consistency"; "check_overlay"; "check_invariants"; "of_json"; "of_string"; "load";
    "read_json" ]

(* --- W001: wire-message variants ------------------------------------ *)

(* Constructors of the variants that cross the simulated network:
   Registry.wire with its SMR payload, Registry.gm_payload, the
   Agreement.op that SMR payloads encode, and Pbft.msg.  A match that
   names any of these must stay exhaustive.

   The second group is *reserved* for the versioned binary codec
   (ROADMAP item 3): the codec PR must name its frame constructors
   from this list so every decoder match is exhaustiveness-policed
   from the first commit, exactly as simplexmq's versioned Protocol
   commands are. *)
let wire_constructors =
  [
    (* Registry.wire and its SMR payload *)
    "Smr_msg"; "Group_part"; "Direct"; "Heartbeat"; "Sync_m"; "Async_m";
    (* Registry.gm_payload and Agreement.op *)
    "Control"; "Bcast";
    (* Pbft.msg *)
    "Request"; "Preprepare"; "Prepare"; "Commit"; "Viewchange"; "Newview";
  ]

(* --- S001/S002: module-level mutable state --------------------------- *)

(* Applications whose *toplevel* result is shared mutable state.  A
   [let] of one of these at module level is S001; the same call inside
   a function body builds per-call state and is fine. *)
let mutable_constructors =
  [
    "ref"; "Stdlib.ref";
    "Hashtbl.create"; "Stdlib.Hashtbl.create";
    "Buffer.create"; "Stdlib.Buffer.create";
    "Bytes.create"; "Bytes.make";
    "Array.make"; "Array.create_float"; "Array.init";
    "Queue.create"; "Stack.create";
  ]

(* Domain-safe by construction: inventoried in ATUM_lint_state.json
   but never flagged by S001/S002. *)
let atomic_constructors = [ "Atomic.make"; "Stdlib.Atomic.make" ]

(* Write spellings recognised by the pass-1 indexer.  [assign] mutate
   their first argument; [setfield] is the [g.f <- e] form handled
   structurally. *)
let write_functions =
  [
    ":="; "incr"; "decr";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear";
    "Buffer.add_char"; "Buffer.add_string"; "Buffer.add_bytes"; "Buffer.clear"; "Buffer.reset";
    "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Stack.push"; "Stack.pop"; "Stack.clear";
    (* Atomics mutate too — S002 exempts them, but the state inventory
       still records who writes them. *)
    "Atomic.set"; "Atomic.exchange"; "Atomic.incr"; "Atomic.decr";
    "Atomic.fetch_and_add"; "Atomic.compare_and_set";
  ]

(* --- E001/S002: call-graph roots ------------------------------------- *)

(* A closure passed to one of these runs inside the simulation engine;
   everything it calls is task-reachable (S002's scope).  Matched on
   the alias-expanded spelling's last two components so
   [Engine.every], [Atum_sim.Engine.every] and a [module E = ...]
   alias all count; the bare spelling only counts inside
   lib/sim/engine.ml itself. *)
let engine_schedulers = [ "schedule"; "schedule_at"; "every" ]

let engine_module_file = "lib/sim/engine.ml"
