type event = {
  time : float;
  kind : string;
  node : int;
  peer : int;
  vgroup : int;
  size : int;
  bid : int;
  span : int;
  parent : int;
  cycle : int;
}

type level = Always | Sampled | Debug

(* Sampling decisions compare a 30-bit hash against [rate * 2^30]. *)
let sample_one = 0x4000_0000

type t = {
  mutable enabled : bool;
  buf : event option array;
  mutable next : int; (* next write slot *)
  mutable total : int; (* admitted events ever recorded *)
  dropped_kinds : (string, int ref) Hashtbl.t; (* kind -> overwritten count *)
  levels : (string, level) Hashtbl.t; (* per-kind overrides of [default_level] *)
  mutable sample_rate : float;
  mutable sample_threshold : int; (* sample_rate * 2^30, precomputed *)
  mutable debug : bool;
  mutable sampled_out : int; (* events suppressed by sampling/level, exact *)
  admitted_kinds : (string, int ref) Hashtbl.t;
  sampled_kinds : (string, int ref) Hashtbl.t;
}

let default_capacity = 65_536

let capacity_for_scale ~nodes =
  if nodes >= 1_000_000 then 1_048_576
  else if nodes >= 100_000 then 524_288
  else if nodes >= 10_000 then 131_072
  else default_capacity

let create ?(capacity = default_capacity) ?(enabled = false) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    enabled;
    buf = Array.make capacity None;
    next = 0;
    total = 0;
    dropped_kinds = Hashtbl.create 16;
    levels = Hashtbl.create 16;
    sample_rate = 1.0;
    sample_threshold = sample_one;
    debug = false;
    sampled_out = 0;
    admitted_kinds = Hashtbl.create 16;
    sampled_kinds = Hashtbl.create 16;
  }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let capacity t = Array.length t.buf
let total t = t.total
let length t = min t.total (Array.length t.buf)
let dropped t = t.total - length t

(* Hot, high-volume kinds default to Sampled; everything rare enough to
   matter individually (sagas, violations, faults, membership) records
   always.  The ["debug."] namespace is reserved for opt-in chatter. *)
let default_level kind =
  if String.length kind >= 4 && String.sub kind 0 4 = "net." then Sampled
  else if String.length kind >= 6 && String.sub kind 0 6 = "debug." then Debug
  else
    match kind with
    | "bcast.hop" | "bcast.dup" -> Sampled
    | _ -> Always

let level_of t kind =
  match Hashtbl.find_opt t.levels kind with
  | Some lvl -> lvl
  | None -> default_level kind

let set_level t ~kind lvl = Hashtbl.replace t.levels kind lvl

let sample_rate t = t.sample_rate

let set_sample_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Trace.set_sample_rate: rate must be in [0, 1]";
  t.sample_rate <- rate;
  t.sample_threshold <- int_of_float (rate *. float_of_int sample_one)

let set_debug t flag = t.debug <- flag

let sampled_out t = t.sampled_out

let sorted_counts tbl =
  List.map
    (fun (k, r) -> (k, !r))
    (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare tbl)

let dropped_by_kind t = sorted_counts t.dropped_kinds
let admitted_by_kind t = sorted_counts t.admitted_kinds
let sampled_out_by_kind t = sorted_counts t.sampled_kinds
let lossy t = dropped t > 0 || t.sampled_out > 0

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  Hashtbl.reset t.dropped_kinds;
  Hashtbl.reset t.admitted_kinds;
  Hashtbl.reset t.sampled_kinds;
  t.next <- 0;
  t.total <- 0;
  t.sampled_out <- 0

let bump tbl kind =
  match Hashtbl.find_opt tbl kind with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl kind (ref 1)

(* Hot path: callers are expected to guard with [enabled], but emit
   re-checks so an unguarded call on a disabled trace stays a no-op.

   Sampled kinds admit deterministically by hashing the event's
   correlation id (bid, else span, else node, else peer) so that one
   admitted broadcast keeps its *entire* hop lineage and a dropped one
   vanishes wholesale — a uniform thinning of correlated stories, not
   of individual events.  [Hashtbl.hash] is deterministic across runs
   and processes, so same-seed runs admit the same set. *)
let emit t ~time ~kind ?(node = -1) ?(peer = -1) ?(vgroup = -1) ?(size = 0) ?(bid = -1)
    ?(span = -1) ?(parent = -1) ?(cycle = -1) () =
  if t.enabled then begin
    let admit =
      match level_of t kind with
      | Always -> true
      | Debug -> t.debug
      | Sampled ->
        t.sample_threshold >= sample_one
        ||
        let corr =
          if bid >= 0 then bid
          else if span >= 0 then span
          else if node >= 0 then node
          else if peer >= 0 then peer
          else t.total + t.sampled_out
        in
        Hashtbl.hash corr land (sample_one - 1) < t.sample_threshold
    in
    if admit then begin
      (match t.buf.(t.next) with
      | Some old -> bump t.dropped_kinds old.kind
      | None -> ());
      t.buf.(t.next) <- Some { time; kind; node; peer; vgroup; size; bid; span; parent; cycle };
      t.next <- (t.next + 1) mod Array.length t.buf;
      t.total <- t.total + 1;
      bump t.admitted_kinds kind
    end
    else begin
      t.sampled_out <- t.sampled_out + 1;
      bump t.sampled_kinds kind
    end
  end

let iter t f =
  let cap = Array.length t.buf in
  let len = length t in
  (* Oldest event sits at [next] once the ring has wrapped. *)
  let start = if t.total > cap then t.next else 0 in
  for i = 0 to len - 1 do
    match t.buf.((start + i) mod cap) with
    | Some e -> f e
    | None -> assert false
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let events t =
  List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let last_events t k =
  let cap = Array.length t.buf in
  let len = length t in
  let want = min k len in
  let out = ref [] in
  (* Newest event sits just before [next]; walk backwards [want] slots. *)
  for i = 0 to want - 1 do
    match t.buf.(((t.next - 1 - i) mod cap + cap) mod cap) with
    | Some e -> out := e :: !out
    | None -> assert false
  done;
  !out
