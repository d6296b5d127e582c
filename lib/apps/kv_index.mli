(** The AShare metadata index (§4.2.2): a per-node, in-memory ordered
    key-value store playing the role the paper gives to SQLite — file
    lookup (files-to-nodes mapping) and search over the namespace.
    Backed by {!Atum_util.Btree}.

    Keys are (owner, filename): every user owns a flat namespace and
    only the owner ever writes to it, so index updates never
    conflict (§4.2.1).  The ordering puts a user's whole namespace in
    one contiguous key range, so {!owner_files} is a single B-tree
    range scan. *)

type 'a t

type key = { owner : string; name : string }

val compare_key : key -> key -> int

val create : unit -> 'a t

val put : 'a t -> key -> 'a -> unit

val get : 'a t -> key -> 'a option

val mem : 'a t -> key -> bool

val remove : 'a t -> key -> unit

val size : 'a t -> int

val keys : 'a t -> key list
(** Sorted by owner, then name. *)

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val search : 'a t -> string -> (key * 'a) list
(** Substring match on owner or file name (SEARCH, §4.2.1), sorted. *)

val owner_files : 'a t -> string -> (key * 'a) list
(** All files in one user's namespace — a contiguous range scan. *)

(* --- snapshot codec -------------------------------------------------- *)

val of_json : (Atum_util.Json.t -> 'a option) -> Atum_util.Json.t -> 'a t option
(** Rebuild an index from the durable form: a list of
    [{"owner":_,"name":_,"value":_}] objects, in any order.  [None] on
    any malformed entry.  Used by the durability layer's snapshots. *)
