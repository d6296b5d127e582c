(* Pass 1 of the repo-wide analysis: a value index and an intra-repo
   call graph over every parsed module.

   Everything is still syntactic — no cmi files, no typing — so name
   resolution is a path heuristic documented in LINT.md:

   - A file's canonical module name comes from its path:
     lib/util/hashtbl_ext.ml -> Atum_util.Hashtbl_ext (the dune
     library wrapper), bin/atum_cli.ml -> Atum_cli.
   - Toplevel [module X = Path] aliases, [open Path] and [include
     Path] are honoured when resolving spelled names; anything that
     still does not match an indexed module (Stdlib, external
     libraries) resolves to nothing and drops out of the graph.
   - A bare identifier reference counts as a call edge: a function
     passed eta-reduced to [Engine.every] or [List.iter] will be
     invoked, and the analysis must follow it.

   Per toplevel binding the index records: resolved-later call edges,
   direct D001 spellings (wall clock / OS entropy), writes to
   module-level mutable state, and whether any of those happened
   inside a closure handed to the engine scheduler (the S002 scope).
   Per module it records toplevel globals built from a mutable
   constructor ([ref], [Hashtbl.create], ..., [Atomic.make]) or a
   record literal naming a mutable field label. *)

open Parsetree

type call = { callee : string; call_line : int; call_in_task : bool }

type impure_use = { spelling : string; use_line : int }

type write = { target : string; write_line : int; write_in_task : bool }

type fn = {
  fn_name : string; (* unqualified binding name *)
  fn_module : string; (* canonical module, e.g. Atum_util.Rng *)
  fn_file : string;
  fn_line : int;
  mutable calls : call list; (* spelled (alias-expanded), newest first *)
  mutable impure : impure_use list;
  mutable writes : write list;
}

let fn_fq f = f.fn_module ^ "." ^ f.fn_name

type global = {
  g_name : string;
  g_module : string;
  g_file : string;
  g_line : int;
  g_kind : string; (* ref | hashtbl | buffer | bytes | array | queue | stack | atomic | mutable-record *)
  g_atomic : bool;
}

let global_fq g = g.g_module ^ "." ^ g.g_name

type module_info = {
  m_name : string; (* canonical *)
  m_file : string;
  mutable m_aliases : (string * string) list; (* local name -> spelled target *)
  mutable m_opens : string list; (* spelled targets, last first: it shadows the rest *)
  mutable m_includes : string list; (* spelled targets, in order *)
  mutable m_values : string list; (* every toplevel binding name *)
}

type t = {
  modules : (string, module_info) Hashtbl.t; (* canonical -> info *)
  by_suffix : (string, string list) Hashtbl.t; (* path suffix -> canonical names *)
  fns : (string, fn) Hashtbl.t; (* canonical Module.value -> fn *)
  globals : (string, global) Hashtbl.t; (* canonical Module.value -> global *)
  mutable_labels : (string, unit) Hashtbl.t; (* record labels declared mutable anywhere *)
}

(* --- canonical module names ----------------------------------------- *)

let library_prefix dir =
  (* lib/lint builds the [atum_linter] library; every other lib/<d>
     directory wraps into Atum_<d>. *)
  if String.equal dir "lint" then "Atum_linter" else "Atum_" ^ dir

(* A lib/ file is named as its library wraps it; any other file by its
   path, so bench/main.ml and perfbench/main.ml stay two modules. *)
let module_of_file file =
  let base = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ -> library_prefix dir ^ "." ^ base
  | _ -> (
    match Filename.dirname file with
    | "." -> base
    | dir ->
      let dirs = List.map String.capitalize_ascii (String.split_on_char '/' dir) in
      String.concat "." (dirs @ [ base ]))

(* --- small syntax helpers ------------------------------------------- *)

let longident_name lid = String.concat "." (Longident.flatten lid)

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let last_two name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> (
    match String.rindex_from_opt name (i - 1) '.' with
    | None -> name
    | Some j -> String.sub name (j + 1) (String.length name - j - 1))

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) | Pexp_open (_, inner) ->
    peel inner
  | _ -> e

let rec is_function_expr e =
  match (peel e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, inner) -> is_function_expr inner
  | _ -> false

let rec pattern_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pattern_vars inner
  | Ppat_constraint (inner, _) | Ppat_open (_, inner) | Ppat_lazy inner ->
    pattern_vars inner
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

let mem_s name l = List.exists (String.equal name) l

let is_banned_entropy name =
  mem_s name Config.banned_idents
  || List.exists (fun p -> Config.starts_with ~prefix:p name) Config.banned_prefixes

(* Kind label for a mutable-constructor application. *)
let mutable_kind name =
  let module_part =
    match String.rindex_opt name '.' with Some i -> String.sub name 0 i | None -> ""
  in
  match last_component module_part with
  | "Hashtbl" -> "hashtbl"
  | "Buffer" -> "buffer"
  | "Bytes" -> "bytes"
  | "Array" -> "array"
  | "Queue" -> "queue"
  | "Stack" -> "stack"
  | "Atomic" -> "atomic"
  | _ -> "ref"

(* --- construction ---------------------------------------------------- *)

let create () =
  {
    modules = Hashtbl.create 64;
    by_suffix = Hashtbl.create 64;
    fns = Hashtbl.create 512;
    globals = Hashtbl.create 32;
    mutable_labels = Hashtbl.create 64;
  }

let register_module t m =
  Hashtbl.replace t.modules m.m_name m;
  let add suffix =
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_suffix suffix) in
    if not (mem_s m.m_name prev) then Hashtbl.replace t.by_suffix suffix (m.m_name :: prev)
  in
  add m.m_name;
  add (last_component m.m_name)

(* Collect record labels declared [mutable] anywhere in the repo; used
   to classify toplevel record literals as shared mutable state. *)
let ingest_types t structure =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
              List.iter
                (fun l ->
                  if l.pld_mutable = Asttypes.Mutable then
                    Hashtbl.replace t.mutable_labels l.pld_name.txt ())
                labels
            | _ -> ())
          decls
      | _ -> ())
    structure

(* Expand a leading alias: with [module E = Atum_sim.Engine] in
   [aliases], "E.every" becomes "Atum_sim.Engine.every" and "E"
   becomes "Atum_sim.Engine". *)
let expand_alias aliases name =
  let head, rest =
    match String.index_opt name '.' with
    | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))
    | None -> (name, "")
  in
  match List.assoc_opt head aliases with Some target -> target ^ rest | None -> name

(* Is this application handing a closure to the engine scheduler?  The
   alias-expanded spelling must end in Engine.(schedule|schedule_at|
   every); the bare spelling only counts inside lib/sim/engine.ml. *)
let is_engine_scheduler ~file name =
  let base = last_component name in
  mem_s base Config.engine_schedulers
  && (String.equal (last_two name) ("Engine." ^ base)
     || (String.equal name base && String.equal file Config.engine_module_file))

(* The body walker: records calls, ident references (they become call
   edges too), banned-entropy spellings and global-write candidates,
   tracking whether the current expression sits inside a closure
   passed to the engine scheduler. *)
let scan_body (m : module_info) (fn : fn) body =
  let in_task = ref false in
  let record_call ~loc name =
    fn.calls <- { callee = name; call_line = line_of loc; call_in_task = !in_task } :: fn.calls
  in
  let record_write ~loc name =
    fn.writes <-
      { target = name; write_line = line_of loc; write_in_task = !in_task } :: fn.writes
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      let name = expand_alias m.m_aliases (longident_name txt) in
      if is_banned_entropy name then
        fn.impure <- { spelling = name; use_line = line_of e.pexp_loc } :: fn.impure;
      record_call ~loc:e.pexp_loc name
    | Pexp_setfield (target, _, value) ->
      (match (peel target).pexp_desc with
      | Pexp_ident { txt; _ } ->
        record_write ~loc:e.pexp_loc (expand_alias m.m_aliases (longident_name txt))
      | _ -> ());
      self.Ast_iterator.expr self target;
      self.Ast_iterator.expr self value
    | Pexp_apply (head, args) -> (
      match (peel head).pexp_desc with
      | Pexp_ident { txt; _ } ->
        let name = expand_alias m.m_aliases (longident_name txt) in
        if is_banned_entropy name then
          fn.impure <- { spelling = name; use_line = line_of e.pexp_loc } :: fn.impure;
        record_call ~loc:e.pexp_loc name;
        (* Write candidate: the first unlabelled argument of a known
           mutator spelling, when it is a plain identifier. *)
        (if
           mem_s name Config.write_functions
           || mem_s (last_two name) Config.write_functions
         then
           match
             List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
           with
           | Some (_, arg) -> (
             match (peel arg).pexp_desc with
             | Pexp_ident { txt; _ } ->
               record_write ~loc:e.pexp_loc (expand_alias m.m_aliases (longident_name txt))
             | _ -> ())
           | None -> ());
        if is_engine_scheduler ~file:fn.fn_file name then begin
          (* The task body is the closure (or eta-reduced callable) in
             the final unlabelled position; only that argument runs on
             the engine.  Labelled arguments and the engine handle do
             not. *)
          let unlabelled = List.filter (fun (l, _) -> l = Asttypes.Nolabel) args in
          let task_arg =
            match List.rev unlabelled with (_, a) :: _ -> Some a | [] -> None
          in
          List.iter
            (fun (_, a) ->
              let is_task =
                match task_arg with Some ta -> ta == a | None -> false
              in
              if is_task || is_function_expr a then begin
                let saved = !in_task in
                in_task := true;
                self.Ast_iterator.expr self a;
                in_task := saved
              end
              else self.Ast_iterator.expr self a)
            args
        end
        else List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args
      | _ -> super.Ast_iterator.expr self e)
    | _ -> super.Ast_iterator.expr self e
  in
  let it = { super with Ast_iterator.expr } in
  it.Ast_iterator.expr it body

(* Classify a toplevel binding's RHS as shared mutable state. *)
let global_of_binding (m : module_info) ~file ~line name expr =
  match (peel expr).pexp_desc with
  | Pexp_apply (head, _) -> (
    match (peel head).pexp_desc with
    | Pexp_ident { txt; _ } ->
      let spelled = expand_alias m.m_aliases (longident_name txt) in
      let matches l = mem_s spelled l || mem_s (last_two spelled) l in
      if matches Config.atomic_constructors then
        Some
          {
            g_name = name; g_module = m.m_name; g_file = file; g_line = line;
            g_kind = "atomic"; g_atomic = true;
          }
      else if matches Config.mutable_constructors then
        Some
          {
            g_name = name; g_module = m.m_name; g_file = file; g_line = line;
            g_kind = mutable_kind spelled; g_atomic = false;
          }
      else None
    | _ -> None)
  | _ -> None

(* A module's toplevel scope, read off its structure: aliases, opens,
   includes and every bound value name. *)
let scope_of ~file structure =
  let m =
    { m_name = module_of_file file; m_file = file; m_aliases = []; m_opens = [];
      m_includes = []; m_values = [] }
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        m.m_aliases <- (name, longident_name txt) :: m.m_aliases
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        m.m_opens <- longident_name txt :: m.m_opens
      | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        m.m_includes <- m.m_includes @ [ longident_name txt ]
      | Pstr_value (_, bindings) ->
        List.iter (fun vb -> m.m_values <- pattern_vars vb.pvb_pat @ m.m_values) bindings
      | _ -> ())
    structure;
  m

let ingest_values t (m : module_info) structure =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            let vars = pattern_vars vb.pvb_pat in
            let line = line_of vb.pvb_loc in
            match vars with
            | [] ->
              (* [let () = ...] initialisation code still calls and
                 writes — e.g. the knot-tying [hook := impl] at the
                 bottom of System.  It is not callable, but its writes
                 belong in the state inventory. *)
              let name = Printf.sprintf "(init:%d)" line in
              let fn =
                {
                  fn_name = name; fn_module = m.m_name; fn_file = m.m_file; fn_line = line;
                  calls = []; impure = []; writes = [];
                }
              in
              scan_body m fn vb.pvb_expr;
              Hashtbl.replace t.fns (m.m_name ^ "." ^ name) fn
            | name :: _ ->
              let fq = m.m_name ^ "." ^ name in
              let fn =
                {
                  fn_name = name; fn_module = m.m_name; fn_file = m.m_file; fn_line = line;
                  calls = []; impure = []; writes = [];
                }
              in
              (if not (is_function_expr vb.pvb_expr) then begin
                 match global_of_binding m ~file:m.m_file ~line name vb.pvb_expr with
                 | Some g -> Hashtbl.replace t.globals fq g
                 | None -> (
                   (* Toplevel record literal with a repo-declared
                      mutable field label: shared mutable state too. *)
                   match (peel vb.pvb_expr).pexp_desc with
                   | Pexp_record (fields, _)
                     when List.exists
                            (fun ({ Location.txt; _ }, _) ->
                              Hashtbl.mem t.mutable_labels
                                (last_component (longident_name txt)))
                            fields ->
                     Hashtbl.replace t.globals fq
                       {
                         g_name = name; g_module = m.m_name; g_file = m.m_file;
                         g_line = line; g_kind = "mutable-record"; g_atomic = false;
                       }
                   | _ -> ())
               end);
              scan_body m fn vb.pvb_expr;
              Hashtbl.replace t.fns fq fn)
          bindings
      | _ -> ())
    structure

let build parsed =
  let t = create () in
  let mods =
    List.map
      (fun (file, structure) ->
        let m = scope_of ~file structure in
        register_module t m;
        (m, structure))
      parsed
  in
  List.iter (fun (_, structure) -> ingest_types t structure) mods;
  List.iter (fun (m, structure) -> ingest_values t m structure) mods;
  t

(* --- resolution ------------------------------------------------------ *)

let same_library a b =
  let lib n = match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n in
  String.equal (lib a) (lib b)

let resolve_module t ~from_module path =
  match Hashtbl.find_opt t.by_suffix path with
  | None -> None
  | Some [ c ] -> Some c
  | Some cs -> (
    let cs = List.sort String.compare cs in
    match List.find_opt (same_library from_module) cs with
    | Some c -> Some c
    | None -> ( match cs with c :: _ -> Some c | [] -> None))

(* The modules through which [value] is reached in scope [m]: [m]
   itself when it binds [value], else [m] followed by the chain through
   whichever of its [include]s provides it (the last one wins). *)
let rec include_chain t (m : module_info) value =
  if mem_s value m.m_values then Some [ m.m_name ]
  else
    List.find_map
      (fun inc ->
        match resolve_module t ~from_module:m.m_name inc with
        | Some c when not (String.equal c m.m_name) ->
          Option.bind (Hashtbl.find_opt t.modules c) (fun im ->
              Option.map (fun chain -> m.m_name :: chain) (include_chain t im value))
        | _ -> None)
      (List.rev m.m_includes)

(* Resolve a spelled (already alias-expanded) name seen in scope [m]
   with [opens] in force, innermost (last) first, since a later open
   shadows an earlier one, to every canonical Module.value it names:
   the spelled module's own name first, then each module it reaches
   through [include], ending at the definition.  [] for anything
   external. *)
let resolve_chain t (m : module_info) ~opens name =
  let in_module c value =
    Option.bind (Hashtbl.find_opt t.modules c) (fun cm -> include_chain t cm value)
  in
  (* A module path is tried under each open first: with [open
     Atum_sim] in force, [Engine] is Atum_sim.Engine. *)
  let module_path path =
    match List.find_opt (fun o -> Hashtbl.mem t.modules (o ^ "." ^ path)) opens with
    | Some o -> Some (o ^ "." ^ path)
    | None -> resolve_module t ~from_module:m.m_name path
  in
  let chain, value =
    match String.rindex_opt name '.' with
    | None ->
      ( (match include_chain t m name with
        | Some _ as own -> own
        | None ->
          List.find_map
            (fun o ->
              Option.bind (resolve_module t ~from_module:m.m_name o) (fun c -> in_module c name))
            opens),
        name )
    | Some i ->
      let value = String.sub name (i + 1) (String.length name - i - 1) in
      ( Option.bind (module_path (String.sub name 0 i)) (fun c -> in_module c value),
        value )
  in
  List.map (fun c -> c ^ "." ^ value) (Option.value ~default:[] chain)

(* Resolve a spelled name from [from_module] to the canonical
   Module.value that defines it, or None for anything external. *)
let resolve t ~from_module name =
  Option.bind (Hashtbl.find_opt t.modules from_module) (fun m ->
      List.nth_opt (List.rev (resolve_chain t m ~opens:m.m_opens name)) 0)

(* --- deterministic views --------------------------------------------- *)

let compare_by_site f1 f2 =
  let c = String.compare f1.fn_file f2.fn_file in
  if c <> 0 then c
  else
    let c = Int.compare f1.fn_line f2.fn_line in
    if c <> 0 then c else String.compare f1.fn_name f2.fn_name

let sorted_fns t =
  List.sort compare_by_site
    (Hashtbl.fold (fun _ f acc -> f :: acc) t.fns [])

let sorted_globals t =
  List.sort
    (fun a b ->
      let c = String.compare a.g_file b.g_file in
      if c <> 0 then c else Int.compare a.g_line b.g_line)
    (Hashtbl.fold (fun _ g acc -> g :: acc) t.globals [])

let find_fn t fq = Hashtbl.find_opt t.fns fq

let find_global t fq = Hashtbl.find_opt t.globals fq
