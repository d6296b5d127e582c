(* Negative fixture for the effect-propagation pass (typed, never
   linked).  The direct entropy read below is D001; [wrapped]
   hides it one call deep and must be flagged E001. *)

(* D001: direct OS entropy. *)
let raw_jitter () = Random.float 1.0

(* E001: one call away from the entropy read. *)
let wrapped () = 0.5 +. raw_jitter ()
