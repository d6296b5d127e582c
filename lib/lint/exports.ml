(* I001: a [val] in a lib/ interface that no other module uses.

   An export is a promise to callers; one with no caller only widens
   the interface.  Uses are the names [Index] resolved in every module
   of [Config.reference_dirs], other than the exporting module's own,
   plus every name such a use reaches through an [include]: System's
   [include Agreement] makes a use of [System.agree] a use of
   [Agreement.agree].  A [{!M.v}] in a doc comment is an attribute, not
   an expression, so it is no use. *)

open Typedtree

(* [interfaces] are the typed lib/ .mli files with their scopes. *)
let diagnostics index ~interfaces =
  let used = Hashtbl.create 4096 in
  List.iter
    (fun name -> List.iter (fun n -> Hashtbl.replace used n ()) (Index.chain index name))
    (Atum_util.Hashtbl_ext.sorted_keys ~cmp:String.compare index.Index.uses);
  List.concat_map
    (fun ((s : Index.scope), signature) ->
      List.filter_map
        (fun item ->
          match item.sig_desc with
          | Tsig_value { val_name = { txt; _ }; val_loc; _ }
            when not (Hashtbl.mem used (s.Index.name ^ "." ^ txt)) ->
            Some
              (Diagnostic.make ~rule:"I001" ~file:s.Index.unit_.Index.file
                 ~line:(Index.line_of val_loc) ~col:0
                 (Printf.sprintf
                    "%s.%s is exported but no other module uses it: delete it, or drop \
                     it from the interface if its own module needs it"
                    s.Index.name txt))
          | _ -> None)
        signature.sig_items)
    interfaces
