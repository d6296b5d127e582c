(* Deterministic views of hash tables.

   [Hashtbl.fold]/[Hashtbl.iter] enumerate buckets in an order that
   depends on insertion history and the hash function, so any result
   that escapes the fold must be sorted before it can feed a
   reproducible artifact (JSON exports, wire messages, seeded runs).
   These helpers package the fold-then-sort idiom with an explicit,
   monomorphic comparator so call sites never reach for the
   polymorphic [compare].

   [sorts_performed] counts every materialize-and-sort these helpers
   execute.  Hot paths that are supposed to run sort-free (telemetry
   gauge sampling, gossip fan-out, incremental sweeps) are pinned by
   regression tests that snapshot the counter around the operation.
   The counter is an [Atomic.t]: it is the one module-level global the
   library keeps (atum-lint S001 polices the rest), and the sort-bound
   tests must stay meaningful when sweeps fan out across domains. *)

let sorts = Atomic.make 0

let sorts_performed () = Atomic.get sorts

let sorted_bindings ~cmp tbl =
  Atomic.incr sorts;
  List.sort (fun (a, _) (b, _) -> cmp a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_keys ~cmp tbl =
  Atomic.incr sorts;
  List.sort cmp (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
