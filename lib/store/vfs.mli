(** In-simulation virtual filesystem: the deterministic {!Backend}.

    All durable bytes live in memory, keyed by (node id, file name);
    file timestamps are drawn from the [now] closure (simulation time),
    never the wall clock — so attaching a store to a seeded run keeps
    artifacts byte-identical across runs.  Files grow in place: an
    append costs its own bytes, not a copy of the file.

    The damage helpers let chaos scenarios corrupt or truncate a
    node's log deterministically before a cold restart, which is how
    the corrupted-log recovery path is exercised. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] supplies file mtimes (default: constant 0); pass the
    simulation clock, e.g. [fun () -> System.now sys]. *)

val backend : t -> Backend.t

val read : t -> node:int -> name:string -> string option
(** A copy of a file's bytes, for tests and damage targeting. *)

val mtime : t -> node:int -> name:string -> float option

val total_bytes : t -> int
(** Total bytes held across all nodes and files. *)

val file_count : t -> int

val corrupt_byte : t -> node:int -> name:string -> at:int -> bool
(** Flip every bit of the byte at offset [at].  [false] when the file
    is missing or the offset is out of range. *)

val truncate : t -> node:int -> name:string -> keep:int -> bool
(** Cut the file down to its first [keep] bytes (a torn tail).
    [false] when the file is missing or already that short. *)
