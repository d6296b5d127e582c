(* The per-file pass: walk one module's typed tree with a
   [Tast_iterator], emitting diagnostics for the rule set in [Config].
   Every name is the compiler's ([Index.path_name]), so a rule matches
   a use however it is spelled.

   - D003 flags a stdlib comparison used at a type the compiler does
     not specialise (see [specialised]).  Comparing against a constant
     constructor ([None], [[]]) only inspects the tag and never
     descends into a payload, so it stays legal.
   - D002 clears a [Hashtbl.fold] that is nested inside (or piped
     into) one of [Config.sort_functions]; anything else is flagged and
     must be fixed or allowlisted.
   - M001 matches [ignore (f ...)] by the final path component of [f]
     against [Config.result_returning].
   - W001 fires on a guard-free [_]/variable arm of a [match] or
     [function] over one of [Config.wire_types] that has some other,
     refutable arm. *)

open Typedtree

type context = {
  scope : Index.scope;
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

let name ctx e = Index.ident_name ctx.scope e

let is_sortish ctx e =
  let head = match e.exp_desc with Texp_apply (f, _) -> f | _ -> e in
  Option.fold ~none:false ~some:(fun n -> List.mem n Config.sort_functions) (name ctx head)

let is_float_literal e =
  match e.exp_desc with Texp_constant (Const_float _) -> true | _ -> false

let is_constant_constructor e =
  match e.exp_desc with
  | Texp_construct (_, _, []) | Texp_variant (_, None) -> true
  | _ -> false

(* The compiler specialises a comparison at an immediate type (int,
   char, bool, a variant of constant constructors) and at float,
   string, bytes and the boxed integers; anywhere else it calls the
   polymorphic runtime compare. *)
let specialised env ty =
  Typeopt.maybe_pointer_type env ty = Lambda.Immediate
  || List.exists (Typeopt.is_base_type env ty)
       Predef.[ path_float; path_string; path_bytes; path_int32; path_int64; path_nativeint ]

(* D003 for the comparison [e] (a [t -> t -> _] instance) at [loc]. *)
let check_comparison ctx ~loc e =
  let env = ctx.scope.Index.unit_.Index.env e.exp_env in
  match (Types.get_desc (Ctype.expand_head env e.exp_type), e.exp_desc) with
  | Tarrow (_, ty, _, _), Texp_ident (p, _, _) when not (specialised env ty) ->
    report ctx ~rule:"D003" ~loc
      "polymorphic (%s) at type %s in protocol code; use a monomorphic compare/equal \
       (Int.compare, String.equal, the type's own)"
      (Path.last p)
      (Format.asprintf "%a" Printtyp.type_expr ty)
  | _ -> ()

(* --- per-expression checks ------------------------------------------ *)

let check_ident ctx e =
  match name ctx e with
  | None -> ()
  | Some n ->
    if Config.in_lib ctx.file && Config.is_entropy n then
      report ctx ~rule:"D001" ~loc:e.exp_loc
        "%s reaches outside the simulation for time or entropy; use the engine clock and \
         Atum_util.Rng"
        n;
    if Config.in_protocol ctx.file && List.mem n Config.polymorphic_comparisons then
      check_comparison ctx ~loc:e.exp_loc e

let check_ignore ctx ~loc args =
  match args with
  | [ { exp_desc = Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ } as f, _); _ } ]
    when List.mem (Path.last p) Config.result_returning ->
    report ctx ~rule:"M001" ~loc
      "ignore of %s drops a Result error path; match on it or log the Error"
      (Option.value ~default:(Path.name p) (name ctx f))
  | _ -> ()

let is_catch_all (p : pattern) = match p.pat_desc with Tpat_any | Tpat_var _ -> true | _ -> false

(* [arms] are the value patterns of a match over [ty], with guards. *)
let check_match ctx ~env ty arms =
  if
    List.exists (fun (p, _) -> not (is_catch_all p)) arms
    && Option.fold ~none:false
         ~some:(fun n -> List.mem n Config.wire_types)
         (Index.type_name ctx.scope env ty)
  then
    List.iter
      (fun ((p : pattern), guard) ->
        if Option.is_none guard && is_catch_all p then
          report ctx ~rule:"W001" ~loc:p.pat_loc
            "catch-all arm in a match over a wire-message variant; name every constructor \
             so new messages fail to compile")
      arms

(* --- the iterator --------------------------------------------------- *)

let iterator ctx =
  let super = Tast_iterator.default_iterator in
  let with_sort f =
    ctx.sort_depth <- ctx.sort_depth + 1;
    f ();
    ctx.sort_depth <- ctx.sort_depth - 1
  in
  let expr self e =
    match e.exp_desc with
    | Texp_ident _ -> check_ident ctx e
    | Texp_apply (f, args) -> (
      let args = List.filter_map snd args in
      let visit_args () = List.iter (self.Tast_iterator.expr self) args in
      match (f.exp_desc, name ctx f) with
      | Texp_ident (p, _, _), Some op
        when List.mem op Config.eq_operators || List.mem op Config.polymorphic_comparisons ->
        (* The operator itself is handled here; do not visit [f], so a
           bare comparison reaching [check_ident] is a first-class use. *)
        if List.mem op Config.eq_operators && List.exists is_float_literal args then
          report ctx ~rule:"F001" ~loc:e.exp_loc
            "float-literal equality with (%s); use Float.equal or an explicit sign/epsilon test"
            (Path.last p);
        if
          Config.in_protocol ctx.file
          && List.mem op Config.polymorphic_comparisons
          && not (List.exists is_constant_constructor args)
        then check_comparison ctx ~loc:e.exp_loc f;
        visit_args ()
      | _ when is_sortish ctx f ->
        (* A sort application, or a partial one applied to what is
           piped into it: the typer rewrites [x |> List.sort cmp] and
           [List.sort cmp @@ x] to [(List.sort cmp) x]. *)
        self.expr self f;
        with_sort visit_args
      | _, Some n when List.mem n Config.hashtbl_traversals ->
        if ctx.sort_depth = 0 then
          report ctx ~rule:"D002" ~loc:e.exp_loc
            "%s enumerates buckets in nondeterministic order; sort the result in the same \
             expression (Atum_util.Hashtbl_ext) or allowlist with a commutativity argument"
            n;
        visit_args ()
      | _, Some "Stdlib.ignore" ->
        check_ignore ctx ~loc:e.exp_loc args;
        visit_args ()
      | _ -> super.expr self e)
    | Texp_match (scrutinee, cases, _) ->
      check_match ctx ~env:e.exp_env scrutinee.exp_type
        (List.filter_map
           (fun c -> Option.map (fun p -> (p, c.c_guard)) (fst (split_pattern c.c_lhs)))
           cases);
      super.expr self e
    | Texp_function { cases = c :: _ as cases; _ } ->
      check_match ctx ~env:e.exp_env c.c_lhs.pat_type
        (List.map (fun c -> (c.c_lhs, c.c_guard)) cases);
      super.expr self e
    | _ -> super.expr self e
  in
  { super with expr }

let check scope structure =
  let ctx = { scope; file = scope.Index.unit_.Index.file; sort_depth = 0; diags = [] } in
  let it = iterator ctx in
  it.structure it structure;
  List.sort Diagnostic.compare ctx.diags
