(** Storage backend signature for the durability layer.

    A backend is a record of functions over a per-node flat namespace:
    each node id owns a handful of named files (a write-ahead log, a
    snapshot).  The WAL/snapshot machinery above sees only this record;
    {!Vfs}, an in-simulation virtual filesystem whose contents are
    plain deterministic bytes, implements it. *)

type t = {
  load : node:int -> name:string -> string option;
      (** Whole-file read; [None] when the file does not exist. *)
  save : node:int -> name:string -> string -> unit;
      (** Whole-file replace (and durably sync). *)
  append : node:int -> name:string -> string -> unit;
      (** Append bytes (and durably sync); creates the file. *)
  remove : node:int -> name:string -> unit;  (** No-op when absent. *)
  sync_count : unit -> int;
      (** Durable writes performed so far — the fsync-count gauge. *)
}
