(** Percentile summary of a sample, carrying its sample count. *)

type t = { n : int; p50 : float; p90 : float; p99 : float; max : float }

val empty : t
(** [n = 0], every percentile 0. *)

val of_list : float list -> t
(** Linear-interpolated percentiles ({!Atum_util.Stats.percentile});
    {!empty} on the empty list. *)

val supports : t -> p:float -> bool
(** Whether at least ten samples lie beyond the [p]-th percentile —
    the highest percentile worth reporting for this sample. *)
