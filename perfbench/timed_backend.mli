(** A {!Atum_store.Backend.t} wrapper that counts and times every
    [load], [save], [append] and [remove] — the store layer's busy
    time in the traced run.  It forwards every call unchanged, so the
    simulation it serves is not perturbed. *)

type stat = { mutable calls : int; mutable bytes : int; mutable secs : float }
(** [bytes]: returned by [load], written by [save]/[append]. *)

type t = { load : stat; save : stat; append : stat; remove : stat }

val wrap : ?clock:(unit -> float) -> Atum_store.Backend.t -> t * Atum_store.Backend.t
(** [clock] defaults to [Unix.gettimeofday]. *)

val copy : t -> t
(** A frozen copy of the counters. *)

val reset : t -> unit
(** Zero every counter. *)
