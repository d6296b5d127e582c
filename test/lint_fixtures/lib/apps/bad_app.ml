(* Negative fixture for atum-lint (never compiled, only parsed).  The
   fixture root makes this file lib/apps/bad_app.ml, so the lib/-wide
   rules apply. *)

(* D001: wall clock in lib/. *)
let now () = Unix.gettimeofday ()

(* D001: global entropy in lib/. *)
let jitter () = Random.float 1.0

(* D001: reseeding the global PRNG from the OS. *)
let reseed () = Random.self_init ()

(* D002: Hashtbl traversal whose result is not sorted. *)
let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

(* F001: float-literal equality. *)
let is_unit x = x = 1.0

(* M001: ignoring a Result-returning checker. *)
let probe st = ignore (check_consistency st)

(* M001: ignoring an artifact read drops its decode error. *)
let peek p = ignore (Artifact.load p)
