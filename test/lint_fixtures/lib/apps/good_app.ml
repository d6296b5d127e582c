(* Positive fixture for atum-lint: nothing here may produce a finding.
   Shows the sanctioned spellings of the patterns the bad fixtures
   trip. *)

let check_consistency _ = Ok ()

let keys tbl = Atum_util.Hashtbl_ext.sorted_keys ~cmp:String.compare tbl

let piped tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let is_unit x = Float.equal x 1.0

let probe st = match check_consistency st with Ok () -> true | Error _ -> false

let handle (m : Atum_core.Agreement.op) = match m with Control c -> c.id | Bcast b -> b.bid
