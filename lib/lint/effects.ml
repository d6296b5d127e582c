(* Pass 2 of the repo-wide analysis: interprocedural effect
   propagation and the domain-safety audit over the Pass-1 index.

   Three rule families are computed here (the per-expression rules
   stay in [Engine]):

   - E001: a lib/ function that *transitively* reaches a D001 source
     (wall clock, OS entropy) through the call graph.  A D001 source
     whose direct finding is allowlisted — the sanctioned
     [Prof_clock]-style opt-in wrapper — does not seed propagation:
     suppressing the source sanctions its callers too.
   - S001: module-level mutable state in lib/ ([ref],
     [Hashtbl.create], [Buffer.create], [Array.make], mutable-record
     literals bound at toplevel).  [Atomic.make] globals are
     inventoried but exempt.
   - S002: a function reachable from an Engine task closure that
     writes such a global: state that one run leaves behind for the
     next run in the same process, so a run's outcome can depend on
     what ran before it.

   The same computation yields the machine-readable state inventory
   (ATUM_lint_state.json): every module-level global with its writers
   and task reachability — the work-list of state shared between
   runs in one process. *)

let schema_version = 1

type writer = {
  w_fn : string; (* canonical Module.value *)
  w_file : string;
  w_line : int; (* line of the write *)
  w_task : bool; (* write happens on a task-reachable path *)
}

type state_entry = {
  se_global : Index.global;
  se_writers : writer list; (* sorted by file/line/fn *)
  se_task_reachable : bool;
  se_flagged : bool; (* S001 fired on it *)
  se_allowlisted : bool; (* ... and lint.allow covers it *)
}

type state = {
  entries : state_entry list; (* sorted by file/line *)
  task_roots : string list; (* canonical fns seeding task reachability *)
}

let in_lib file = Config.starts_with ~prefix:"lib/" file

(* --- call graph views ------------------------------------------------ *)

(* Resolved, deduplicated callee list per function, deterministic. *)
let resolved_calls index (fn : Index.fn) =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (c : Index.call) -> Index.resolve index ~from_module:fn.Index.fn_module c.Index.callee)
       fn.Index.calls)

(* Forward closure over the call graph from [roots] (canonical fns). *)
let reachable_from index roots =
  let visited = Hashtbl.create 64 in
  let rec go frontier =
    match frontier with
    | [] -> ()
    | _ ->
      let next =
        List.concat_map
          (fun fq ->
            if Hashtbl.mem visited fq then []
            else begin
              Hashtbl.replace visited fq ();
              match Index.find_fn index fq with
              | Some fn -> resolved_calls index fn
              | None -> []
            end)
          frontier
      in
      go (List.sort_uniq String.compare next)
  in
  go (List.sort_uniq String.compare roots);
  visited

(* --- E001: transitive impurity --------------------------------------- *)

(* An unsuppressed direct D001 use seeds propagation; pick the first
   use in the file as the witness. *)
let impure_seed allow (fn : Index.fn) =
  let unsuppressed =
    List.filter
      (fun (u : Index.impure_use) ->
        not (Allowlist.covers allow ~rule:"D001" ~file:fn.Index.fn_file ~line:u.Index.use_line))
      fn.Index.impure
  in
  match
    List.sort
      (fun (a : Index.impure_use) b -> Int.compare a.Index.use_line b.Index.use_line)
      unsuppressed
  with
  | [] -> None
  | u :: _ -> Some u

let effect_diagnostics index allow =
  let fns = Index.sorted_fns index in
  (* Reverse edges: callee -> callers. *)
  let preds : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (fn : Index.fn) ->
      let caller = Index.fn_fq fn in
      List.iter
        (fun callee ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt preds callee) in
          Hashtbl.replace preds callee (caller :: prev))
        (resolved_calls index fn))
    fns;
  let seeds =
    List.filter_map
      (fun (fn : Index.fn) ->
        match impure_seed allow fn with
        | Some u -> Some (Index.fn_fq fn, fn, u)
        | None -> None)
      fns
  in
  let seed_set = Hashtbl.create 8 in
  List.iter (fun (fq, fn, u) -> Hashtbl.replace seed_set fq (fn, u)) seeds;
  (* Multi-source BFS toward the callers; [next_hop] points one step
     back toward the seed so a witness chain can be printed. *)
  let next_hop = Hashtbl.create 64 in
  let origin = Hashtbl.create 64 in
  let rec bfs frontier =
    match frontier with
    | [] -> ()
    | _ ->
      let next =
        List.concat_map
          (fun fq ->
            let callers =
              List.sort_uniq String.compare
                (Option.value ~default:[] (Hashtbl.find_opt preds fq))
            in
            List.filter_map
              (fun caller ->
                if Hashtbl.mem next_hop caller || Hashtbl.mem seed_set caller then None
                else begin
                  Hashtbl.replace next_hop caller fq;
                  Hashtbl.replace origin caller
                    (match Hashtbl.find_opt origin fq with
                    | Some o -> o
                    | None -> fq);
                  Some caller
                end)
              callers)
          frontier
      in
      bfs (List.sort_uniq String.compare next)
  in
  bfs (List.sort_uniq String.compare (List.map (fun (fq, _, _) -> fq) seeds));
  let chain_of fq =
    let rec go acc fq =
      match Hashtbl.find_opt next_hop fq with
      | Some next -> go (next :: acc) next
      | None -> List.rev acc
    in
    fq :: go [] fq
  in
  List.filter_map
    (fun (fn : Index.fn) ->
      let fq = Index.fn_fq fn in
      if (not (in_lib fn.Index.fn_file)) || Hashtbl.mem seed_set fq then None
      else begin
        match Hashtbl.find_opt origin fq with
        | None -> None
        | Some seed_fq ->
          let seed_fn, u = Hashtbl.find seed_set seed_fq in
          Some
            (Diagnostic.make ~rule:"E001" ~file:fn.Index.fn_file ~line:fn.Index.fn_line
               ~col:0
               (Printf.sprintf
                  "%s transitively reaches %s (%s:%d) via %s; determinism requires the \
                   engine clock and Atum_util.Rng at every depth"
                  fq u.Index.spelling seed_fn.Index.fn_file u.Index.use_line
                  (String.concat " -> " (chain_of fq))))
      end)
    fns

(* --- S001/S002 + the state inventory --------------------------------- *)

let analyze ~index ~allow =
  let fns = Index.sorted_fns index in
  let globals = Index.sorted_globals index in
  (* Task roots: everything called (or referenced) inside a closure
     handed to Engine.schedule/schedule_at/every. *)
  let task_roots =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (fn : Index.fn) ->
           List.filter_map
             (fun (c : Index.call) ->
               if c.Index.call_in_task then
                 Index.resolve index ~from_module:fn.Index.fn_module c.Index.callee
               else None)
             fn.Index.calls)
         fns)
  in
  let task_reachable = reachable_from index task_roots in
  let is_task_fn (fn : Index.fn) = Hashtbl.mem task_reachable (Index.fn_fq fn) in
  (* Writers per global: resolve every write target against the global
     index. *)
  let writers : (string, writer list) Hashtbl.t = Hashtbl.create 32 in
  let s002 = ref [] in
  List.iter
    (fun (fn : Index.fn) ->
      List.iter
        (fun (w : Index.write) ->
          match Index.resolve index ~from_module:fn.Index.fn_module w.Index.target with
          | None -> ()
          | Some gfq -> (
            match Index.find_global index gfq with
            | None -> ()
            | Some g ->
              let on_task = w.Index.write_in_task || is_task_fn fn in
              let entry =
                {
                  w_fn = Index.fn_fq fn; w_file = fn.Index.fn_file;
                  w_line = w.Index.write_line; w_task = on_task;
                }
              in
              let prev = Option.value ~default:[] (Hashtbl.find_opt writers gfq) in
              Hashtbl.replace writers gfq (entry :: prev);
              if on_task && (not g.Index.g_atomic) && in_lib fn.Index.fn_file then
                s002 :=
                  Diagnostic.make ~rule:"S002" ~file:fn.Index.fn_file
                    ~line:w.Index.write_line ~col:0
                    (Printf.sprintf
                       "%s is reachable from an Engine task closure and writes the \
                        module-level mutable %s (%s:%d); parallel sweeps race on it — \
                        isolate per run or use Atomic"
                       (Index.fn_fq fn) gfq g.Index.g_file g.Index.g_line)
                  :: !s002))
        fn.Index.writes)
    fns;
  let s001 =
    List.filter_map
      (fun (g : Index.global) ->
        if g.Index.g_atomic || not (in_lib g.Index.g_file) then None
        else
          Some
            (Diagnostic.make ~rule:"S001" ~file:g.Index.g_file ~line:g.Index.g_line ~col:0
               (Printf.sprintf
                  "module-level mutable state %s (%s) is shared by every run in the \
                   process and by all domains under parallel sweeps; make it \
                   per-instance or an Atomic.t"
                  (Index.global_fq g) g.Index.g_kind)))
      globals
  in
  let entries =
    List.map
      (fun (g : Index.global) ->
        let ws =
          List.sort
            (fun a b ->
              let c = String.compare a.w_file b.w_file in
              if c <> 0 then c
              else
                let c = Int.compare a.w_line b.w_line in
                if c <> 0 then c else String.compare a.w_fn b.w_fn)
            (Option.value ~default:[] (Hashtbl.find_opt writers (Index.global_fq g)))
        in
        let flagged = (not g.Index.g_atomic) && in_lib g.Index.g_file in
        {
          se_global = g;
          se_writers = ws;
          se_task_reachable = List.exists (fun w -> w.w_task) ws;
          se_flagged = flagged;
          se_allowlisted =
            flagged
            && Allowlist.covers allow ~rule:"S001" ~file:g.Index.g_file ~line:g.Index.g_line;
        })
      globals
  in
  let diags = effect_diagnostics index allow @ s001 @ !s002 in
  (List.sort Diagnostic.compare diags, { entries; task_roots })

(* --- ATUM_lint_state.json -------------------------------------------- *)

let state_to_json state =
  let open Atum_util.Json in
  let entry se =
    let g = se.se_global in
    Obj
      [
        ("name", String (Index.global_fq g));
        ("file", String g.Index.g_file);
        ("line", Int g.Index.g_line);
        ("kind", String g.Index.g_kind);
        ("atomic", Bool g.Index.g_atomic);
        ("flagged", Bool se.se_flagged);
        ("allowlisted", Bool se.se_allowlisted);
        ("task_reachable", Bool se.se_task_reachable);
        ( "writers",
          List
            (List.map
               (fun w ->
                 Obj
                   [
                     ("fn", String w.w_fn);
                     ("file", String w.w_file);
                     ("line", Int w.w_line);
                     ("in_task", Bool w.w_task);
                   ])
               se.se_writers) );
      ]
  in
  Obj
    [
      ("schema_version", Int schema_version);
      ("cmd", String "lint-state");
      ("globals", List (List.map entry state.entries));
      ("task_roots", List (List.map (fun r -> String r) state.task_roots));
      ( "summary",
        Obj
          [
            ("globals", Int (List.length state.entries));
            ("flagged", Int (List.length (List.filter (fun e -> e.se_flagged) state.entries)));
            ( "task_reachable",
              Int (List.length (List.filter (fun e -> e.se_task_reachable) state.entries)) );
            ("task_roots", Int (List.length state.task_roots));
          ] );
    ]
