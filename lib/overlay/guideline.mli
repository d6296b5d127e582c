(** The configuration guideline of §3.2 / Fig 4: for a given overlay
    density (number of H-graph cycles [hc]) and number of vgroups,
    find the shortest random-walk length [rwl] whose endpoint
    distribution is indistinguishable from uniform under Pearson's χ²
    test at a given confidence level. *)

val walk_is_uniform :
  ?confidence:float -> vgroups:int -> hc:int -> rwl:int -> samples:int -> seed:int -> unit -> bool

val optimal_rwl :
  ?confidence:float ->
  ?max_rwl:int ->
  ?samples_per_cell:int ->
  vgroups:int ->
  hc:int ->
  seed:int ->
  unit ->
  int option
(** Smallest [rwl] that passes the uniformity test, averaged over a
    few independent graphs to smooth out topology luck.  [None] if no
    length up to [max_rwl] passes. *)

val figure4 :
  ?vgroup_counts:int list -> ?hc_values:int list -> seed:int -> unit -> (int * (int * int option) list) list
(** The full guideline table: for every vgroup count, the optimal
    [rwl] per [hc].  Defaults reproduce the paper's axes:
    vgroups ∈ {8, 32, 128, 512, 2048, 8192}, hc ∈ {2, 4, 6, 8, 10, 12}. *)
