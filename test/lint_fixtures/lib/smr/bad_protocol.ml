(* Negative fixture for atum-lint (typed, never linked): every
   construct below must trip a rule when scanned with the fixture root,
   because this file sits under lib/smr/. *)

(* D003: polymorphic compare at a type variable. *)
let sort_members ms = List.sort compare ms

(* D003: structural equality at an option type. *)
let same_req a b = a = Some b

(* W001: catch-all arm in a match over a wire-message variant. *)
let handle (m : Atum_core.Agreement.op) = match m with Control c -> c.id | _ -> 0
