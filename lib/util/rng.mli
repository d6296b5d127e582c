(** Deterministic splittable pseudo-random number generator.

    All randomness in the simulator and in the protocols flows through
    values of type {!t}, created from an explicit seed, so that every
    experiment is reproducible.  The generator is splitmix64, which is
    fast, has a 64-bit state, and supports cheap splitting: {!split}
    derives an independent stream, which lets concurrent protocol
    instances draw random numbers without perturbing each other.  The
    state is kept unboxed, so {!bits64}, {!float} and {!bernoulli}
    allocate nothing. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state (the copy replays [t]'s
    future draws). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0.
    Uses rejection sampling, so it is unbiased. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val bernoulli_threshold : float -> int
(** [bernoulli_threshold p] is [ceil (p * 2^53)], clamped to
    [\[0, 2^53\]]. *)

val bernoulli_below : t -> int -> bool
(** [bernoulli_below t (bernoulli_threshold p)] consumes the same draw
    as [bernoulli t p] and returns the same result, comparing ints
    instead of floats. *)

val bernoulli_row : t -> int -> Bytes.t -> first:int -> width:int -> int
(** [bernoulli_row t k mask ~first ~width] makes, in order, the
    [width] draws of [bernoulli_below t k], clears bit [first + i] of
    [mask] (bit [c] is bit [c land 7] of byte [c lsr 3]) for each draw
    [i] that hits, and returns the number of hits.  The state ends
    where the per-cell draws leave it. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); mean [1. /. rate]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal sample. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian — used for WAN latency tails. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on
    the empty list. *)

val pick_array : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t k xs] draws [min k (length xs)]
    distinct elements, in random order. *)
