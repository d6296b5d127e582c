(* Pass 1 of the repo-wide analysis: a value index and an intra-repo
   call graph over the typed tree of every module.

   Names come from the compiler.  An identifier's [Path.t] has its
   module part normalised through the environment saved in the typed
   tree, which unfolds module aliases (dune's [Lib.M] -> [Lib__M],
   [module E = Atum_sim.Engine], [let module]) the way OCaml resolves
   them; opens and shadowing were already settled by the typer.  A
   [Pident] names a toplevel binding of its own unit (or a value its
   toplevel [include] brought in) or else a local, which drops out.

   Per toplevel binding the index records: call edges (a bare reference
   counts: a function passed eta-reduced to [Engine.every] or
   [List.iter] will be invoked), direct D001 uses, writes to
   module-level mutable state, and whether any of those happened inside
   a closure handed to the engine scheduler (the S002 scope).  Per
   module it records toplevel globals built from a mutable constructor
   ([ref], [Hashtbl.create], ..., [Atomic.make]) or a record literal
   with a mutable field.  Every module, linted or read for uses only,
   records the names of other modules it uses (I001). *)

open Typedtree

type tree = Impl of structure | Intf of signature

type unit_ = {
  file : string; (* the source, relative to the root *)
  modname : string; (* the compilation unit, e.g. Atum_core__System *)
  tree : tree;
  env : Env.t -> Env.t; (* the full environment behind one saved in [tree] *)
}

type call = { callee : string; call_line : int; call_in_task : bool }

type impure_use = { spelling : string; use_line : int }

type write = { target : string; write_line : int; write_in_task : bool }

type fn = {
  fn_name : string; (* unqualified binding name *)
  fn_module : string; (* canonical module, e.g. Atum_util.Rng *)
  fn_file : string;
  fn_line : int;
  mutable calls : call list; (* canonical names, newest first *)
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

type t = {
  fns : (string, fn) Hashtbl.t; (* canonical Module.value -> fn *)
  globals : (string, global) Hashtbl.t; (* canonical Module.value -> global *)
  includes : (string, string) Hashtbl.t; (* M.v bound by M's [include N] -> N.v *)
  uses : (string, unit) Hashtbl.t; (* every M.v a module other than M names *)
}

let create () =
  {
    fns = Hashtbl.create 512;
    globals = Hashtbl.create 32;
    includes = Hashtbl.create 256;
    uses = Hashtbl.create 4096;
  }

(* --- canonical names ------------------------------------------------- *)

(* [Atum_core__System] -> [Atum_core.System]. *)
let demangle name =
  let n = String.length name in
  let rec go start i acc =
    if i >= n - 1 then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (i + 2) (i + 2) (String.sub name start (i - start) :: acc)
    else go start (i + 1) acc
  in
  String.concat "." (go 0 0 [])

(* The module a compilation unit defines.  A library module is dune's
   mangled name unfolded.  Every executable's module [M] is
   [Dune__exe__M], so it is named by its directory instead
   (bench/main.ml is [Bench.Main], perfbench/main.ml [Perfbench.Main]):
   an executable's modules all sit in its stanza's directory. *)
let module_name ~dir modname =
  let exe = "Dune__exe__" in
  let n = String.length exe in
  if Config.starts_with ~prefix:exe modname then
    String.concat "."
      (List.map String.capitalize_ascii (String.split_on_char '/' dir)
      @ [ String.sub modname n (String.length modname - n) ])
  else demangle modname

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* One unit's naming context: its module and the canonical name of
   every toplevel value and type it binds. *)
type scope = {
  unit_ : unit_;
  name : string; (* canonical module, e.g. Atum_core.System *)
  toplevel : (string, string) Hashtbl.t; (* Ident.unique_name -> Module.name *)
  mutable included : (string * string) list; (* M.v -> N.v, for M's [include N] *)
}

let rec module_path s = function
  | Path.Pident id when Ident.global id ->
    Some (module_name ~dir:(Filename.dirname s.unit_.file) (Ident.name id))
  | Pdot (p, m) -> Option.map (fun q -> q ^ "." ^ m) (module_path s p)
  | _ -> None

(* The canonical name of the value or type [path] denotes at a node
   whose saved environment is [env]; None for a local or a functor
   application. *)
let path_name s env = function
  | Path.Pident id -> Hashtbl.find_opt s.toplevel (Ident.unique_name id)
  | Pdot (m, v) ->
    Option.map
      (fun q -> q ^ "." ^ v)
      (module_path s (Env.normalize_module_path None (s.unit_.env env) m))
  | _ -> None

(* The canonical name of the type constructor [ty] expands to. *)
let type_name s env ty =
  match Types.get_desc (Ctype.expand_head (s.unit_.env env) ty) with
  | Tconstr (p, _, _) -> path_name s env p
  | _ -> None

let scope unit_ =
  let name = module_name ~dir:(Filename.dirname unit_.file) unit_.modname in
  let s = { unit_; name; toplevel = Hashtbl.create 64; included = [] } in
  let bind id q = Hashtbl.replace s.toplevel (Ident.unique_name id) (q ^ "." ^ Ident.name id) in
  (match unit_.tree with
  | Intf _ -> ()
  | Impl str ->
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter (fun id -> bind id name) (let_bound_idents vbs)
        | Tstr_type (_, decls) -> List.iter (fun d -> bind d.typ_id name) decls
        | Tstr_include { incl_mod; incl_type; _ } -> (
          let rec path m =
            match m.mod_desc with
            | Tmod_ident (p, _) ->
              module_path s (Env.normalize_module_path None (unit_.env m.mod_env) p)
            | Tmod_constraint (m, _, _, _) -> path m
            | _ -> None
          in
          match path incl_mod with
          | Some included ->
            List.iter
              (function
                | Types.Sig_value (id, _, _) ->
                  bind id included;
                  let v = "." ^ Ident.name id in
                  s.included <- (name ^ v, included ^ v) :: s.included
                | _ -> ())
              incl_type
          | None -> ())
        | _ -> ())
      str.str_items);
  s

(* --- construction ---------------------------------------------------- *)

let rec peel e = match e.exp_desc with Texp_open (_, inner) -> peel inner | _ -> e

let is_function_expr e = match (peel e).exp_desc with Texp_function _ -> true | _ -> false

let ident_name s e =
  match e.exp_desc with Texp_ident (p, _, _) -> path_name s e.exp_env p | _ -> None

(* The kind of shared mutable state a toplevel binding's RHS builds. *)
let global_kind s expr =
  match (peel expr).exp_desc with
  | Texp_apply (head, _) ->
    Option.bind (ident_name s head) (fun n -> List.assoc_opt n Config.mutable_constructors)
  | Texp_record { fields; _ }
    when Array.exists (fun (l, _) -> l.Types.lbl_mut = Asttypes.Mutable) fields ->
    Some "mutable-record"
  | _ -> None

(* Records what [s]'s structure uses and, when [linted], its toplevel
   bindings: one [fn] per binding, with the calls, D001 uses and
   global-write candidates of its body, tracking whether the current
   expression sits inside a closure passed to the engine scheduler. *)
let ingest t ~linted s =
  let own = s.name ^ "." in
  List.iter (fun (v, included) -> Hashtbl.replace t.includes v included) s.included;
  let current = ref None and in_task = ref false in
  let record f = Option.iter f !current in
  let record_write ~loc target =
    Option.iter
      (fun name ->
        record (fun fn ->
            fn.writes <-
              { target = name; write_line = line_of loc; write_in_task = !in_task } :: fn.writes))
      (ident_name s target)
  in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter
        (fun name ->
          if not (Config.starts_with ~prefix:own name) then Hashtbl.replace t.uses name ();
          record (fun fn ->
              let line = line_of e.exp_loc in
              if Config.is_entropy name then
                fn.impure <- { spelling = name; use_line = line } :: fn.impure;
              fn.calls <-
                { callee = name; call_line = line; call_in_task = !in_task } :: fn.calls))
        (path_name s e.exp_env p)
    | Texp_setfield (target, _, _, _) ->
      record_write ~loc:e.exp_loc target;
      super.expr self e
    | Texp_apply (head, args) -> (
      let args = List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args in
      let unlabelled =
        List.filter_map (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None) args
      in
      match ident_name s head with
      | Some name when List.mem name Config.write_functions ->
        (match unlabelled with target :: _ -> record_write ~loc:e.exp_loc target | [] -> ());
        super.expr self e
      | Some name when List.mem name Config.engine_schedulers ->
        (* The task body is the closure (or eta-reduced callable) in
           the final unlabelled position; only that argument, and any
           other closure, runs on the engine.  Labelled arguments and
           the engine handle do not. *)
        let task = match List.rev unlabelled with a :: _ -> Some a | [] -> None in
        self.expr self head;
        List.iter
          (fun (_, a) ->
            if Option.fold ~none:false ~some:(( == ) a) task || is_function_expr a then begin
              let saved = !in_task in
              in_task := true;
              self.expr self a;
              in_task := saved
            end
            else self.expr self a)
          args
      | _ -> super.expr self e)
    | _ -> super.expr self e
  in
  let it = { super with expr } in
  let fn ~line name =
    { fn_name = name; fn_module = s.name; fn_file = s.unit_.file; fn_line = line; calls = [];
      impure = []; writes = [] }
  in
  let binding vb =
    let line = line_of vb.vb_loc in
    let f =
      match pat_bound_idents vb.vb_pat with
      | [] ->
        (* [let () = ...] initialisation code still calls and writes —
           e.g. the knot-tying [hook := impl] at the bottom of System.
           It is not callable, but its writes belong in the state
           inventory. *)
        fn ~line (Printf.sprintf "(init:%d)" line)
      | id :: _ ->
        let f = fn ~line (Ident.name id) in
        Option.iter
          (fun kind ->
            Hashtbl.replace t.globals (fn_fq f)
              { g_name = f.fn_name; g_module = s.name; g_file = f.fn_file; g_line = line;
                g_kind = kind; g_atomic = String.equal kind "atomic" })
          (global_kind s vb.vb_expr);
        f
    in
    current := Some f;
    it.expr it vb.vb_expr;
    current := None;
    Hashtbl.replace t.fns (fn_fq f) f
  in
  match s.unit_.tree with
  | Intf _ -> ()
  | Impl str ->
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) when linted -> List.iter binding vbs
        | _ -> it.structure_item it item)
      str.str_items

(* --- resolution ------------------------------------------------------ *)

(* The indexed binding [name] reaches, through the [include]s that
   re-export it. *)
let rec resolve t name =
  if Hashtbl.mem t.fns name then Some name
  else Option.bind (Hashtbl.find_opt t.includes name) (resolve t)

(* [name] and every name it re-exports through [include]. *)
let rec chain t name =
  name :: Option.fold ~none:[] ~some:(chain t) (Hashtbl.find_opt t.includes name)

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
