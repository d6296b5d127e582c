(** Discrete-event simulation engine.

    A single virtual clock and an event heap; callbacks scheduled at
    the same instant run in insertion order, so simulations are fully
    deterministic.  Time is in (simulated) seconds.

    The engine also profiles itself: every scheduling entry point takes
    an optional [?label], and the engine accumulates per-label event
    counts, a histogram of virtual-time scheduling delays, and — only
    when [ATUM_PROF_WALL=1], see {!Prof_clock} — wall-clock self-time
    per label.  {!profile} exports the result ({!Artifact.profile_of}); with
    the wall clock disabled (the default) the export is a pure
    function of the simulation and stays byte-identical across
    same-seed runs. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val schedule : ?label:string -> t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative
    delays are clamped to 0.  [label] (default ["(unlabeled)"])
    attributes the event in the engine profile.  Raises
    [Invalid_argument] on a NaN delay. *)

val schedule_at : ?label:string -> t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past run "now".  Raises
    [Invalid_argument] on a NaN time, which no queue order could
    place. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Processes events in timestamp order until the queue drains, the
    clock passes [until], [max_events] have run, or {!stop} is
    called.  Events scheduled past [until] stay queued.  On return
    from a run with [until], the clock is at [until] even when the
    queue drained early, so durations measured via {!now} are exact. *)

val every : ?label:string -> t -> ?start:float -> period:float -> (unit -> bool) -> unit
(** [every t ~period f] runs [f] at [start] (default [now t +.
    period]) and then every [period] seconds for as long as [f]
    returns [true].  The k-th tick runs at exactly [start +. k *.
    period] (closed form, no floating-point accumulation drift).
    Raises [Invalid_argument] on a non-positive period. *)

val set_trace : t -> Trace.t -> unit
(** Attach a structured trace; each {!run} then logs one
    ["engine.run"] event carrying the number of events it processed
    (when the trace is enabled). *)

val step : t -> bool
(** Process a single event; [false] when the queue is empty. *)

val stop : t -> unit
(** Makes the innermost {!run} return after the current event. *)

val events_processed : t -> int

val pending : t -> int
(** Number of queued events. *)

(* --- self-profile ---------------------------------------------------- *)

type label_profile = {
  label : string;
  events : int;  (** events executed under this label *)
  wall_self_s : float;
      (** wall-clock seconds spent inside the callbacks; 0.0 unless
          [ATUM_PROF_WALL=1] (see {!Prof_clock}) *)
  vt_first : float;  (** virtual time of the first event *)
  vt_last : float;  (** virtual time of the most recent event *)
  delay_hist : (int * int) list;
      (** nonzero log2 buckets of (execution - scheduling) virtual
          delay: bucket 0 is immediate, bucket [i >= 1] covers
          [[2^(i-11), 2^(i-10))] seconds *)
}

val profile : t -> label_profile list
(** Per-label accounting, sorted by label.  A label appears once one
    of its events has run. *)

val delay_bucket_lo : int -> float
(** Lower bound in seconds of a {!label_profile.delay_hist} bucket. *)
