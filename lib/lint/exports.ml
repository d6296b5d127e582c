(* I001: a [val] in a lib/ interface that no other module uses.

   An export is a promise to callers; one with no caller only widens
   the interface.  Uses are every expression identifier in the
   [Config.reference_dirs] sources, resolved with [Index]'s name
   resolution (aliases, opens, includes), plus the [open]s and aliases
   that are local to an expression or a nested structure.  A use from
   the exporting module itself does not count, and neither does a
   [{!M.v}] in a doc comment: doc comments are attributes, not
   expressions. *)

open Parsetree

(* Every canonical Module.value the expressions of [structure] name,
   other than the file's own module's. *)
let uses index ~file structure =
  let scope = Index.scope_of ~file structure in
  let opens = ref [] and aliases = ref [] and found = ref [] in
  let scoped f =
    let saved_opens = !opens and saved_aliases = !aliases in
    f ();
    opens := saved_opens;
    aliases := saved_aliases
  in
  let path lid = Index.expand_alias !aliases (Index.longident_name lid) in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      let own = scope.Index.m_name ^ "." in
      found :=
        List.filter
          (fun fq -> not (Config.starts_with ~prefix:own fq))
          (Index.resolve_chain index scope ~opens:!opens (path txt))
        @ !found
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body) ->
      scoped (fun () ->
          opens := path txt :: !opens;
          self.Ast_iterator.expr self body)
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body)
      ->
      scoped (fun () ->
          aliases := (name, path txt) :: !aliases;
          self.Ast_iterator.expr self body)
    | _ -> super.Ast_iterator.expr self e
  in
  (* An [open] or alias among a structure's items is in force for the
     items after it, to the end of that structure. *)
  let in_order self items =
    scoped (fun () ->
        List.iter
          (fun item ->
            (match item.pstr_desc with
            | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
              opens := path txt :: !opens
            | Pstr_module
                { pmb_name = { txt = Some name; _ };
                  pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
              aliases := (name, path txt) :: !aliases
            | _ -> ());
            self.Ast_iterator.structure_item self item)
          items)
  in
  let it = { super with Ast_iterator.expr; structure = in_order } in
  it.Ast_iterator.structure it structure;
  !found

(* [interfaces] are the parsed lib/ .mli files; [references] every
   parsed .ml file whose uses count. *)
let diagnostics index ~interfaces ~references =
  let used = Hashtbl.create 1024 in
  List.iter
    (fun (file, structure) ->
      List.iter (fun fq -> Hashtbl.replace used fq ()) (uses index ~file structure))
    references;
  List.concat_map
    (fun (file, signature) ->
      let m = Index.module_of_file file in
      List.filter_map
        (fun item ->
          match item.psig_desc with
          | Psig_value { pval_name = { txt; _ }; pval_loc; _ }
            when not (Hashtbl.mem used (m ^ "." ^ txt)) ->
            Some
              (Diagnostic.make ~rule:"I001" ~file ~line:(Index.line_of pval_loc) ~col:0
                 (Printf.sprintf
                    "%s.%s is exported but no other module uses it: delete it, or drop \
                     it from the interface if its own module needs it"
                    m txt))
          | _ -> None)
        signature)
    interfaces
