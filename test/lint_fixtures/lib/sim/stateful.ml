(* Negative fixture for the domain-safety rules (typed, never
   linked).  Module-level mutable state is S001; writing it from a
   function reachable out of an Engine task closure is S002. *)

(* S001: toplevel ref. *)
let hits = ref 0

(* S001: toplevel shared table. *)
let cache = Hashtbl.create 16

(* S002 once [start] schedules it: writes the module-level [hits]. *)
let bump () = incr hits

(* Writer of [cache], but never task-reachable: no S002. *)
let record k v = Hashtbl.replace cache k v

let start engine = Engine.every engine ~period:1.0 (fun () -> bump (); true)
