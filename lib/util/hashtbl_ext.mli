(** Deterministic, sorted views of hash tables.

    [Hashtbl.fold]/[Hashtbl.iter] enumerate buckets in an
    implementation-defined order, which silently breaks the
    bit-for-bit reproducibility the simulator's seeded runs rely on
    (lint rule D002).  Every traversal whose order can be observed
    must go through one of these helpers, which take an explicit
    comparator on the key type. *)

val sorts_performed : unit -> int
(** Process-wide count of materialize-and-sort traversals these
    helpers have executed.  Regression tests snapshot it around
    operations that must run sort-free (gauge sampling, gossip
    fan-out) to pin their cost. *)

val sorted_bindings : cmp:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings, sorted by key with [cmp].  With duplicate keys (from
    [Hashtbl.add] shadowing) the relative order of equal keys is
    unspecified; the repo only uses [Hashtbl.replace] tables. *)

val sorted_keys : cmp:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list
(** All keys, sorted with [cmp]. *)
