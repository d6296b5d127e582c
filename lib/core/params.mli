(** Atum system parameters (Table 1) and deployment configuration. *)

type protocol =
  | Sync
      (** Dolev-Strong SMR inside vgroups; the whole deployment runs
          in lock-step rounds (single-datacenter assumption). *)
  | Async
      (** PBFT inside vgroups; event-driven, usable over WAN. *)

type t = {
  protocol : protocol;
  hc : int;  (** number of H-graph cycles (Table 1: 2..12) *)
  rwl : int;  (** random-walk length (Table 1: 4..15) *)
  gmin : int;  (** minimum vgroup size; merge below this *)
  gmax : int;  (** maximum vgroup size; split above this *)
  round_duration : float;  (** Sync only; §6 uses 1–1.5 s *)
  pbft_timeout : float;  (** Async only: view-change timer *)
  heartbeat_period : float;  (** §5.1: coarse, e.g. one per minute *)
  eviction_timeout : float;  (** silence before peers agree to evict *)
  seed : int;
}

val default : t
(** Sync, (hc, rwl) = (5, 10), gmax = 8 — the paper's 800-node
    configuration. *)

val default_async : t

val for_system_size : ?protocol:protocol -> ?seed:int -> int -> t
(** Pick (hc, rwl, gmin, gmax) from the guideline for an expected
    system size, as §6.1.1 does per experiment. *)

val validate : t -> (unit, string) result
