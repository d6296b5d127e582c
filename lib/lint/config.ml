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
        "polymorphic comparison (=, <>, <, compare, min, ...) at a type the compiler \
         does not specialise, in protocol, application, store and crypto code: protocol \
         state needs a monomorphic compare/equal";
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
    {
      id = "I001";
      severity = Error;
      summary =
        "unused export: a val in a lib/ interface that no other module uses; \
         delete it, or narrow it to its module";
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

(* The sources whose uses keep a lib/ export alive (I001).  perfbench
   counts: it is a frozen benchmark, so an export it reads must stay.
   The lint fixtures are deliberately odd code, not users. *)
let reference_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

let reference_excluded = [ "test/lint_fixtures" ]

(* Every name below is canonical: the path the compiler resolves a
   use to, with dune's [Lib__M] mangling unfolded ([Index]).  However
   the source spells it ([Hashtbl.fold], [Stdlib.Hashtbl.fold], an
   [open Hashtbl], a [module H = Hashtbl] alias), a use of the stdlib
   fold is [Stdlib.Hashtbl.fold]. *)

(* --- D001: determinism escape hatches ------------------------------ *)

(* Values that read the wall clock or per-process entropy.  Any use of
   the stdlib [Random] module is banned wholesale: seeded randomness
   must flow through [Atum_util.Rng]. *)
let banned_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime"; "Stdlib.Sys.time" ]

let is_entropy name =
  List.mem name banned_idents || starts_with ~prefix:"Stdlib.Random." name

(* --- D002: order-dependent traversals ------------------------------ *)

let hashtbl_traversals = [ "Stdlib.Hashtbl.iter"; "Stdlib.Hashtbl.fold" ]

(* Functions that impose a total order on (or deterministically
   consume) whatever flowed into them; a Hashtbl traversal nested in
   their arguments is considered laundered. *)
let sort_functions =
  [
    "Stdlib.List.sort"; "Stdlib.List.sort_uniq"; "Stdlib.List.stable_sort";
    "Stdlib.List.fast_sort"; "Stdlib.Array.sort";
    "Atum_util.Hashtbl_ext.sorted_bindings"; "Atum_util.Hashtbl_ext.sorted_keys";
  ]

(* --- D003/F001: comparison ------------------------------------------- *)

(* The stdlib comparisons that are polymorphic unless the compiler
   specialises them at the type they are used at (D003). *)
let polymorphic_comparisons =
  [
    "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>=";
    "Stdlib.compare"; "Stdlib.min"; "Stdlib.max";
  ]

(* Equality operators whose float-literal operand is F001. *)
let eq_operators = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.=="; "Stdlib.!=" ]

(* --- M001: ignored Results ----------------------------------------- *)

(* Final path components of functions in this repo that return a
   [Result.t]; [ignore (f ...)] on any of these drops an error path.
   [load] and [read_json] are the artifact readers ([Artifact.load],
   [Artifact.read_json]) and [Snapshot.load]. *)
let result_returning =
  [ "check_consistency"; "check_overlay"; "check_invariants"; "of_json"; "of_string"; "load";
    "read_json" ]

(* --- W001: wire-message variants ------------------------------------ *)

(* The variants that cross the simulated network: Registry.wire with
   its SMR payload and group-message payload, the Agreement.op that SMR
   payloads encode, and Pbft.msg.  A match over any of these must stay
   exhaustive.  The versioned binary codec (ROADMAP item 3) adds its
   frame type here, so every decoder match is policed from its first
   commit. *)
let wire_types =
  [
    "Atum_core.Registry.wire"; "Atum_core.Registry.smr_msg"; "Atum_core.Registry.gm_payload";
    "Atum_core.Agreement.op"; "Atum_smr.Pbft.msg";
  ]

(* --- S001/S002: module-level mutable state --------------------------- *)

(* Applications whose *toplevel* result is shared mutable state, with
   the kind the state inventory records.  A [let] of one of these at
   module level is S001 unless the kind is [atomic] (domain-safe by
   construction: inventoried but never flagged); the same call inside
   a function body builds per-call state and is fine. *)
let mutable_constructors =
  [
    ("Stdlib.ref", "ref");
    ("Stdlib.Hashtbl.create", "hashtbl");
    ("Stdlib.Buffer.create", "buffer");
    ("Stdlib.Bytes.create", "bytes"); ("Stdlib.Bytes.make", "bytes");
    ("Stdlib.Array.make", "array"); ("Stdlib.Array.create_float", "array");
    ("Stdlib.Array.init", "array");
    ("Stdlib.Queue.create", "queue"); ("Stdlib.Stack.create", "stack");
    ("Stdlib.Atomic.make", "atomic");
  ]

(* Mutators recognised by the pass-1 indexer: each mutates its first
   unlabelled argument.  The [g.f <- e] form is handled structurally. *)
let write_functions =
  List.map (( ^ ) "Stdlib.")
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
   everything it calls is task-reachable (S002's scope). *)
let engine_schedulers =
  [ "Atum_sim.Engine.schedule"; "Atum_sim.Engine.schedule_at"; "Atum_sim.Engine.every" ]
