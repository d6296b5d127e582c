(** Named counters and sample series collected during a simulation run. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int

type handle
(** One named counter, looked up once: for a counter bumped per
    simulated message, where {!incr}'s string hash is the cost. *)

val handle : t -> string -> handle
(** A handle on the named counter.  Taking it creates nothing: the
    counter appears, as with {!incr}, at its first {!bump}. *)

val bump : ?by:int -> handle -> unit
(** [incr] through a handle; it stays right across {!clear}. *)

val observe : t -> string -> float -> unit
(** Append a sample to the named series. *)

type series
(** One named series, looked up once: {!handle}'s counterpart for a
    series appended to per simulated delivery. *)

val series : t -> string -> series
(** A handle on the named series; like {!handle}, it creates nothing
    until its first {!record}. *)

val record : series -> float -> unit
(** [observe] through a handle; it stays right across {!clear}. *)

val samples : t -> string -> float list
(** Samples in observation order; [] for unknown series. *)

val series_names : t -> string list

val counter_names : t -> string list

val prefix_total : t -> string -> int
(** Sum of every counter whose name starts with the prefix.  One
    unsorted pass, no allocation — safe on per-sample hot paths where
    {!counter_names} (which sorts) is not. *)

val clear : t -> unit

(* --- snapshot / merge ------------------------------------------------ *)

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_series : (string * float list) list;
      (** sorted by name, samples in observation order *)
}

val snapshot : t -> snapshot

val merge : into:t -> t -> unit
(** Add every counter of the source into [into] and append every
    series sample, so per-run metrics can be combined into one
    aggregate (e.g. across benchmark repetitions). *)

