(** Minimal dependency-free JSON tree, writer, and parser.

    Used by the observability pipeline (metrics snapshots, trace
    dumps, [BENCH_*.json] benchmark artifacts) so the repo stays free
    of external JSON libraries.  The writer is deterministic: object
    members keep their construction order, floats render with the
    shortest representation that round-trips, and no whitespace
    depends on the environment — two identical trees always serialize
    to identical bytes, which is what makes the benchmark-diff
    workflow (EXPERIMENTS.md) possible. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default [true]) indents with two spaces.
    Non-finite floats serialize as [null] (JSON has no representation
    for them). *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit

(** {2 Streaming}

    The compact writer's bytes for one scalar, for a caller that
    writes a document straight into a buffer instead of building the
    tree: the same bytes [to_buffer ~pretty:false] writes for
    [Int], [Float] and [String]. *)

val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit
val add_string : Buffer.t -> string -> unit
(** Quoted and escaped. *)

val write_file : ?pretty:bool -> path:string -> t -> unit
(** [to_string] plus a trailing newline, written atomically enough for
    our purposes (single [open_out]/[close_out]). *)

val of_string : string -> (t, string) result
(** Parse a JSON document.  Accepts exactly the values the writer
    emits (plus standard escapes and whitespace); numbers without
    [.], [e] or [E] parse as [Int].  The error string contains a
    character offset.

    Hardened for the WAL-recovery decode path: truncated or garbage
    input always returns [Error] (no exception escapes), nesting
    deeper than an internal bound (512) is rejected instead of
    overflowing the stack, and objects with duplicate keys are
    rejected rather than silently shadowed. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing key or non-object. *)

val float_to_string : float -> string
(** The writer's float format: shortest of %.12g/%.17g that parses
    back to the same float, with a ["."] or exponent always present so
    the value stays a float on re-parse. *)

val equal : t -> t -> bool
(** Structural equality; [Float] compared by bit pattern so NaN = NaN
    and 0. <> -0. (round-trip checks need this). *)
