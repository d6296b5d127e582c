(** In-memory span recorder around the benchmark's own calls into the
    system, written out at the end as Chrome [trace_event] JSON (loads
    in Perfetto and chrome://tracing).

    A span has a name, wall start and end, the span that encloses it
    and an op id ([-1] outside any op).  Spans nest strictly because
    the benchmark is single-threaded. *)

type t

type span = {
  id : int;
  name : string;
  parent : int;  (** enclosing span id, [-1] at the root *)
  op : int;  (** the op this span belongs to, [-1] if none *)
  start : float;  (** wall seconds *)
  stop : float;
}

val create : ?clock:(unit -> float) -> enabled:bool -> unit -> t
(** [clock] defaults to [Unix.gettimeofday].  A disabled recorder
    runs the wrapped function and records nothing. *)

val with_span : t -> ?op:int -> string -> (unit -> 'a) -> 'a
(** Run the function inside a new span, child of the innermost open
    one; [op] defaults to the parent's op.  The span closes even when
    the function raises. *)

val spans : t -> span list
(** Closed spans, in order of opening. *)

val self_times : ?under:string -> t -> (string * float) list
(** Per name, duration minus the time covered by child spans, sorted
    by name.  [under] keeps only the descendants of spans with that
    name. *)

val to_trace_event : t -> Atum_util.Json.t
(** [{traceEvents: [{name; cat; ph: "X"; ts; dur; pid; tid; args:
    {id; parent; op}}]; displayTimeUnit}], timestamps in microseconds
    from the first span. *)
