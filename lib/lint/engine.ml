(* The AST pass: parse one .ml file with compiler-libs and walk its
   Parsetree with an [Ast_iterator], emitting diagnostics for the rule
   set in [Config].

   Everything here is syntactic — there is no type information — so
   each rule is an approximation documented in LINT.md:

   - D003 flags the bare polymorphic [compare] and any [=]/[<>] whose
     operand is a constructor *with a payload* (a tuple, record, or
     [Some x]-style application).  Comparing against constant
     constructors ([None], [[]], [true]) only inspects the tag and
     never descends into payloads, so it stays legal.
   - D002 clears a [Hashtbl.fold] that is syntactically nested inside
     (or piped into) one of [Config.sort_functions]; anything else is
     flagged and must be fixed or allowlisted.
   - M001 matches [ignore (f ...)] by the final path component of [f]
     against [Config.result_returning].
   - W001 fires on a guard-free [_]/variable arm of any [match] or
     [function] whose other arms name a wire constructor. *)

open Parsetree

type context = {
  file : string;
  mutable sort_depth : int;
  mutable diags : Diagnostic.t list;
}

let report ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun message ->
      let p = loc.Location.loc_start in
      ctx.diags <-
        Diagnostic.make ~rule ~file:ctx.file ~line:p.Lexing.pos_lnum
          ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
          message
        :: ctx.diags)
    fmt

let longident_name lid = String.concat "." (Longident.flatten lid)

let ident_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (longident_name txt)
  | _ -> None

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let mem_s name l = List.exists (String.equal name) l

let is_eq_op name = mem_s name Config.eq_operators
let is_sort_name name = mem_s name Config.sort_functions
let is_traversal name = mem_s name Config.hashtbl_traversals

let is_banned_entropy name =
  mem_s name Config.banned_idents
  || List.exists (fun p -> Config.starts_with ~prefix:p name) Config.banned_prefixes

(* [List.sort cmp] partially applied, or a full sort application —
   either side of a [|>]/[@@] pipe counts. *)
let is_sortish_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> is_sort_name (longident_name txt)
  | Pexp_apply (f, _) -> (
    match ident_name f with Some n -> is_sort_name n | None -> false)
  | _ -> false

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

(* Structured operand of [=]/[<>]: polymorphic comparison will descend
   into a payload.  Constant constructors compare by tag only. *)
let is_structural e =
  match e.pexp_desc with
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_tuple _ -> true
  | Pexp_record _ -> true
  | Pexp_array _ -> true
  | _ -> false

let rec pattern_mentions_wire p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
    mem_s (last_component (longident_name txt)) Config.wire_constructors
    || (match arg with Some (_, inner) -> pattern_mentions_wire inner | None -> false)
  | Ppat_or (a, b) -> pattern_mentions_wire a || pattern_mentions_wire b
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) | Ppat_open (_, inner)
  | Ppat_exception inner | Ppat_lazy inner ->
    pattern_mentions_wire inner
  | Ppat_tuple ps -> List.exists pattern_mentions_wire ps
  | _ -> false

let is_catch_all p =
  match p.ppat_desc with Ppat_any | Ppat_var _ -> true | _ -> false

(* --- per-expression checks ------------------------------------------ *)

let check_ident ctx ~loc name =
  if Config.in_lib ctx.file && is_banned_entropy name then
    report ctx ~rule:"D001" ~loc
      "%s reaches outside the simulation for time or entropy; use the engine clock and \
       Atum_util.Rng"
      name;
  if Config.in_protocol ctx.file then begin
    if mem_s name Config.polymorphic_compare_idents then
      report ctx ~rule:"D003" ~loc
        "polymorphic %s on protocol data; pass a module-specific comparator (Int.compare, \
         String.compare, ...)"
        name
    else if is_eq_op name then
      report ctx ~rule:"D003" ~loc
        "polymorphic (%s) passed as a function in protocol code; use a module-specific equal"
        name
  end

let check_eq_application ctx ~loc op args =
  let exprs = List.map snd args in
  if List.exists is_float_literal exprs then
    report ctx ~rule:"F001" ~loc
      "float-literal equality with (%s); use Float.equal or an explicit sign/epsilon test" op;
  if Config.in_protocol ctx.file && List.exists is_structural exprs then
    report ctx ~rule:"D003" ~loc
      "structural (%s) on a constructor payload in protocol code; use a module-specific \
       equal (Option.equal, List.equal, ...)"
      op

let check_ignore ctx ~loc args =
  match args with
  | [ (_, arg) ] -> (
    match arg.pexp_desc with
    | Pexp_apply (f, _) -> (
      match ident_name f with
      | Some n when mem_s (last_component n) Config.result_returning ->
        report ctx ~rule:"M001" ~loc
          "ignore of %s drops a Result error path; match on it or log the Error" n
      | _ -> ())
    | _ -> ())
  | _ -> ()

let check_match ctx cases =
  if List.exists (fun c -> pattern_mentions_wire c.pc_lhs) cases then
    List.iter
      (fun c ->
        if Option.is_none c.pc_guard && is_catch_all c.pc_lhs then
          report ctx ~rule:"W001" ~loc:c.pc_lhs.ppat_loc
            "catch-all arm in a match over a wire-message variant; name every constructor \
             so new messages fail to compile")
      cases

(* --- the iterator --------------------------------------------------- *)

let iterator ctx =
  let super = Ast_iterator.default_iterator in
  let with_sort f =
    ctx.sort_depth <- ctx.sort_depth + 1;
    f ();
    ctx.sort_depth <- ctx.sort_depth - 1
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx ~loc:e.pexp_loc (longident_name txt)
    | Pexp_apply (f, args) -> (
      let visit_args () = List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args in
      match ident_name f with
      | Some op when is_eq_op op ->
        (* The operator itself is handled here; do not visit [f], so a
           bare [=] reaching [check_ident] is a first-class use. *)
        check_eq_application ctx ~loc:e.pexp_loc op args;
        visit_args ()
      | Some "|>" -> (
        match args with
        | [ (_, lhs); (_, rhs) ] when is_sortish_expr rhs ->
          self.Ast_iterator.expr self rhs;
          with_sort (fun () -> self.Ast_iterator.expr self lhs)
        | _ -> super.Ast_iterator.expr self e)
      | Some "@@" -> (
        match args with
        | [ (_, lhs); (_, rhs) ] when is_sortish_expr lhs ->
          self.Ast_iterator.expr self lhs;
          with_sort (fun () -> self.Ast_iterator.expr self rhs)
        | _ -> super.Ast_iterator.expr self e)
      | Some n when is_sort_name n -> with_sort visit_args
      | Some n when is_traversal n ->
        if ctx.sort_depth = 0 then
          report ctx ~rule:"D002" ~loc:e.pexp_loc
            "%s enumerates buckets in nondeterministic order; sort the result in the same \
             expression (Atum_util.Hashtbl_ext) or allowlist with a commutativity argument"
            n;
        visit_args ()
      | Some n when String.equal (last_component n) "ignore" ->
        check_ignore ctx ~loc:e.pexp_loc args;
        visit_args ()
      | _ -> super.Ast_iterator.expr self e)
    | Pexp_match (_, cases) | Pexp_function cases ->
      check_match ctx cases;
      super.Ast_iterator.expr self e
    | _ -> super.Ast_iterator.expr self e
  in
  { super with Ast_iterator.expr }

(* --- entry points --------------------------------------------------- *)

let check_structure ~file structure =
  let ctx = { file; sort_depth = 0; diags = [] } in
  let it = iterator ctx in
  it.Ast_iterator.structure it structure;
  List.sort Diagnostic.compare ctx.diags

let parse parser ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match parser lexbuf with
  | tree -> Ok tree
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
      | _ -> Printexc.to_string exn
    in
    Error (String.trim msg)

let parse_source ~file source = parse Parse.implementation ~file source

let check_source ~file source =
  Result.map (check_structure ~file) (parse_source ~file source)

let read_file ~root ~file =
  let path = Filename.concat root file in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let source = really_input_string ic len in
  close_in ic;
  source

let parse_file ~root ~file = parse_source ~file (read_file ~root ~file)
