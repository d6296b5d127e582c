type protocol = Sync | Async

type t = {
  protocol : protocol;
  hc : int;
  rwl : int;
  gmin : int;
  gmax : int;
  round_duration : float;
  pbft_timeout : float;
  heartbeat_period : float;
  eviction_timeout : float;
  seed : int;
}

let default =
  {
    protocol = Sync;
    hc = 5;
    rwl = 10;
    gmin = 4;
    gmax = 8;
    round_duration = 1.0;
    pbft_timeout = 2.0;
    heartbeat_period = 60.0;
    eviction_timeout = 240.0;
    seed = 1;
  }

let default_async =
  {
    default with
    protocol = Async;
    (* §6.1.3: Async compensates for the lower fault threshold
       (⌊(g−1)/3⌋) with larger vgroups (k = 7). *)
    gmin = 7;
    gmax = 14;
  }

(* Guideline-derived (hc, rwl) per expected number of vgroups,
   following Fig 4: denser overlays and longer walks as the system
   grows (e.g. 128 vgroups -> (6, 9); the paper's 800-node deployment
   used (5, 10) for ~120 vgroups). *)
let overlay_for_vgroups nv =
  if nv <= 8 then (3, 5)
  else if nv <= 32 then (4, 7)
  else if nv <= 128 then (5, 9)
  else if nv <= 512 then (6, 11)
  else if nv <= 2048 then (6, 13)
  else (8, 14)

let for_system_size ?(protocol = Sync) ?(seed = 1) n =
  let base = match protocol with Sync -> default | Async -> default_async in
  let avg_g = float_of_int (base.gmin + base.gmax) /. 2.0 in
  let nv = max 1 (int_of_float (float_of_int n /. avg_g)) in
  let hc, rwl = overlay_for_vgroups nv in
  { base with protocol; hc; rwl; seed }

let validate t =
  if t.hc < 1 then Error "hc must be at least 1"
  else if t.rwl < 1 then Error "rwl must be at least 1"
  else if t.gmin < 1 then Error "gmin must be at least 1"
  else if t.gmax < t.gmin then Error "gmax must be at least gmin"
  else if t.gmax < 2 * t.gmin - 1 && t.gmax > 3 then
    (* A split of a (gmax+1)-sized vgroup yields halves of about
       (gmax+1)/2; those must not immediately need a merge. *)
    Error "gmax must be at least 2*gmin - 1, or splits immediately re-merge"
  else if t.round_duration <= 0.0 then Error "round_duration must be positive"
  else if t.heartbeat_period <= 0.0 then Error "heartbeat_period must be positive"
  else if t.eviction_timeout < t.heartbeat_period then
    Error "eviction_timeout must cover at least one heartbeat period"
  else Ok ()

