(* Negative fixture: entropy wrapped two-plus calls deep and across a
   module boundary.  The per-file D001 pass cannot see anything here;
   only the call-graph propagation (E001) can. *)

(* E001: two calls deep, via Atum_sim.Entropy_core.wrapped. *)
let delay () = Atum_sim.Entropy_core.wrapped ()

(* E001: three calls deep. *)
let send_with_jitter x = x +. delay ()
