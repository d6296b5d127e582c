(** An in-memory B-tree: the ordered key-value store behind the AShare
    metadata index (the paper's SQLite stand-in, §4.2.2).

    Classic CLRS design: every node holds between [degree - 1] and
    [2*degree - 1] keys (except the root), all leaves sit at the same
    depth, and lookups descend O(log_degree n) nodes.  Insertion
    splits full nodes on the way down; deletion rebalances by
    borrowing from or merging with siblings on the way down, so no
    pass ever revisits a node.

    The structure is polymorphic in both keys and values; the
    comparison function is fixed at creation. *)

type ('k, 'v) t

val create : ?degree:int -> cmp:('k -> 'k -> int) -> unit -> ('k, 'v) t
(** [degree] is the minimum branching factor t (default 8): nodes hold
    t-1 .. 2t-1 keys.  Raises [Invalid_argument] if [degree < 2]. *)

val size : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces. *)

val find : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool

val remove : ('k, 'v) t -> 'k -> unit
(** No-op when the key is absent. *)

val min_binding : ('k, 'v) t -> ('k * 'v) option

val max_binding : ('k, 'v) t -> ('k * 'v) option

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** In ascending key order. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Ascending. *)

val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list
(** Bindings with lo <= key <= hi, ascending — the query shape SEARCH
    uses for owner-prefix scans. *)

val height : ('k, 'v) t -> int
(** Tree height (a singleton tree has height 1); O(log n) levels. *)

val check_invariants : ('k, 'v) t -> (unit, string) result
(** Key ordering, per-node occupancy bounds, uniform leaf depth, and
    size consistency — used by the property tests. *)
