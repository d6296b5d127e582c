(** [fail_ratio] accounting: named rows of (attempted, failed) checks,
    summed into one ratio. *)

type t

val create : unit -> t

val add : t -> string -> attempted:int -> failed:int -> unit
(** Record one check.  Raises [Invalid_argument] unless
    [0 <= failed <= attempted]. *)

val rows : t -> (string * int * int) list
(** [(what, attempted, failed)], in the order added. *)

val attempted : t -> int
val failed : t -> int

val ratio : t -> float
(** [failed / attempted]; 0 when nothing was attempted. *)

val sum : t list -> t
(** One row per check name, in order of first appearance, with
    attempted and failed summed over the tallies. *)
