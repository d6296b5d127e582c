(** Mutable binary min-heap of [int] values keyed by [(priority,
    insertion sequence)].

    The simulator's event queue orders event slots with it: entries
    with equal priority (time) pop in insertion order, which makes
    simulation runs deterministic.

    The representation is exposed read-only, so a hot loop can read
    the minimum's priority as [q.prio.(0)] without a call.  Under
    dune's dev profile every module is compiled [-opaque]: nothing is
    inlined across modules, and a float passed to or returned from a
    function of another module is boxed.  {!reserve} and {!commit}
    let a caller store a computed priority without boxing it. *)

type t = private {
  mutable prio : float array;  (** [prio.(0)] is the minimum when [len > 0] *)
  mutable seq : int array;
  mutable value : int array;
  mutable len : int;
  mutable next_seq : int;
}

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val push : t -> float -> int -> unit
(** [push q prio v] inserts [v] with priority [prio]. *)

val reserve : t -> int
(** [reserve q] makes room for one more entry and returns the index
    [i] of its cell.  The caller stores the priority in [q.prio.(i)]
    and then calls {!commit}; [push q p v] is exactly that. *)

val commit : t -> int -> unit
(** [commit q v] inserts [v] with the priority stored by the
    preceding {!reserve}. *)

val pop : t -> int
(** Removes the minimum and returns its value; ties break by
    insertion order.  Raises [Invalid_argument] when empty. *)

val min_prio : t -> float
(** The minimum's priority.  Raises [Invalid_argument] when empty. *)

val clear : t -> unit
