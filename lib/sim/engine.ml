(* The event queue.  An event is a slot in three flat per-engine
   arrays: its closure, its label's stats record, and one int that
   holds the event's delay bucket while it is queued and the next
   free slot while it is free.  The heap (Atum_util.Pqueue) orders
   slot numbers by (time, insertion seq).

   The label's stats and the delay bucket are resolved once, at
   [schedule_at], where the delay (clamped time minus clock) is
   already known.  [step] and [run] read the root time straight from
   the heap's float array.  Floats written per event live in
   float-only records, which OCaml stores unboxed (a float field of a
   mixed record is a pointer, and writing it allocates a box).  So an
   event allocates nothing once the arrays have grown to size, and
   its only pointer writes are the closure stored into its slot, the
   stats record beside it (plus the label memo when the label
   changes), and the closure blanked after it runs, so that a free
   slot never pins a dead closure's environment.  The heap's sifts
   write no pointers at all. *)
let nop () = ()

(* Log2 buckets of (execution time - scheduling time) in virtual
   seconds.  Bucket 0 is "immediate" (delay <= 0); bucket i >= 1
   covers delays in [2^(i-11), 2^(i-10)), so ~1 ms lands in bucket 1
   and the top bucket absorbs everything from ~2^12 s up. *)
let delay_buckets = 24

let[@inline] delay_bucket d =
  if d <= 0.0 then 0
  else begin
    let b = int_of_float (Float.floor (Float.log2 d)) + 11 in
    if b < 1 then 1 else if b > delay_buckets - 1 then delay_buckets - 1 else b
  end

let delay_bucket_lo i = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 11))

type label_times = { mutable wall : float; mutable vt_first : float; mutable vt_last : float }

type label_stats = { mutable events : int; times : label_times; delay_hist : int array }

type clock = { mutable now : float }

type t = {
  heap : Atum_util.Pqueue.t;
  clock : clock;
  mutable fns : (unit -> unit) array;
  mutable stats : label_stats array;
  mutable aux : int array; (* delay bucket if queued, next free slot if free *)
  mutable free : int; (* head of the free-slot list; -1 when empty *)
  mutable stopped : bool;
  mutable processed : int;
  mutable trace : Trace.t option;
  labels : (string, label_stats) Hashtbl.t;
  (* One-entry memo for the per-label stats lookup: schedule sites
     pass literal strings, so physical equality hits nearly always
     and the hash lookup is skipped. *)
  mutable memo_label : string;
  mutable memo_stats : label_stats;
}

let new_stats () =
  {
    events = 0;
    times = { wall = 0.0; vt_first = 0.0; vt_last = 0.0 };
    delay_hist = Array.make delay_buckets 0;
  }

let unlabeled = "(unlabeled)"

let create () =
  let labels = Hashtbl.create 32 and unlabeled_stats = new_stats () in
  Hashtbl.replace labels unlabeled unlabeled_stats;
  {
    heap = Atum_util.Pqueue.create ();
    clock = { now = 0.0 };
    fns = [||];
    stats = [||];
    aux = [||];
    free = -1;
    stopped = false;
    processed = 0;
    trace = None;
    labels;
    memo_label = unlabeled;
    memo_stats = unlabeled_stats;
  }

let now t = t.clock.now

let set_trace t trace = t.trace <- Some trace

let stats_for t label =
  if t.memo_label == label then t.memo_stats
  else begin
    let s =
      match Hashtbl.find t.labels label with
      | s -> s
      | exception Not_found ->
        let s = new_stats () in
        Hashtbl.replace t.labels label s;
        s
    in
    t.memo_label <- label;
    t.memo_stats <- s;
    s
  end

(* Doubles the slot arrays and threads the new slots onto the free
   list, lowest first.  A slot's stats entry is read only while the
   slot is queued, so any record fills the new ones. *)
let grow_slots t =
  let cap = Array.length t.fns in
  let ncap = max 64 (2 * cap) in
  let fns = Array.make ncap nop and stats = Array.make ncap t.memo_stats in
  let aux = Array.init ncap (fun i -> if i + 1 < ncap then i + 1 else t.free) in
  Array.blit t.fns 0 fns 0 cap;
  Array.blit t.stats 0 stats 0 cap;
  Array.blit t.aux 0 aux 0 cap;
  t.fns <- fns;
  t.stats <- stats;
  t.aux <- aux;
  t.free <- cap

(* [time] is already clamped to the clock.  Inlined into both
   schedule entry points, so a computed time is never boxed. *)
let[@inline] enqueue t label time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  let s = stats_for t label in
  if t.free < 0 then grow_slots t;
  let slot = t.free in
  t.free <- t.aux.(slot);
  t.fns.(slot) <- f;
  t.stats.(slot) <- s;
  t.aux.(slot) <- delay_bucket (time -. t.clock.now);
  let q = t.heap in
  let i = Atum_util.Pqueue.reserve q in
  q.prio.(i) <- time;
  Atum_util.Pqueue.commit q slot

let schedule_at ?(label = unlabeled) t ~time f =
  enqueue t label (if time < t.clock.now then t.clock.now else time) f

let schedule ?(label = unlabeled) t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  enqueue t label (t.clock.now +. delay) f

(* Tick times use the closed form [first +. k *. period], never a
   running [+. period] accumulator: repeated addition of an inexact
   period (0.1, say) drifts by one ulp per tick, and after enough
   ticks the k-th tick no longer lands where [first + k*period] says
   it should — tick counts and sampling timestamps stop being exact. *)
let every ?label t ?start ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with None -> t.clock.now +. period | Some s -> s in
  let k = ref 0 in
  let rec tick () =
    if f () then begin
      incr k;
      schedule_at ?label t ~time:(first +. (float_of_int !k *. period)) tick
    end
  in
  schedule_at ?label t ~time:first tick

let step t =
  let q = t.heap in
  if q.len = 0 then false
  else begin
    let time = q.prio.(0) in
    let slot = Atum_util.Pqueue.pop q in
    t.clock.now <- time;
    t.processed <- t.processed + 1;
    let s = t.stats.(slot) in
    if s.events = 0 then s.times.vt_first <- time;
    s.events <- s.events + 1;
    s.times.vt_last <- time;
    let b = t.aux.(slot) in
    s.delay_hist.(b) <- s.delay_hist.(b) + 1;
    let fn = t.fns.(slot) in
    t.fns.(slot) <- nop;
    t.aux.(slot) <- t.free;
    t.free <- slot;
    if Prof_clock.enabled then begin
      let t0 = Prof_clock.now () in
      fn ();
      s.times.wall <- s.times.wall +. (Prof_clock.now () -. t0)
    end
    else fn ();
    true
  end

let run ?until ?max_events t =
  t.stopped <- false;
  let at_entry = t.processed in
  let q = t.heap in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  while !continue do
    if t.stopped || !budget = 0 then continue := false
    else if q.len = 0 then begin
      (* The queue drained before the time limit: the clock must
         still advance to [until], otherwise rates derived from
         [now] are skewed by the gap after the last event. *)
      (match until with
      | Some limit when limit > t.clock.now -> t.clock.now <- limit
      | _ -> ());
      continue := false
    end
    else begin
      match until with
      | Some limit when q.prio.(0) > limit ->
        t.clock.now <- limit;
        continue := false
      | _ ->
        ignore (step t);
        decr budget
    end
  done;
  match t.trace with
  | Some tr when Trace.enabled tr ->
    Trace.emit tr ~time:t.clock.now ~kind:"engine.run" ~size:(t.processed - at_entry) ()
  | _ -> ()

let stop t = t.stopped <- true

let events_processed t = t.processed

let pending t = t.heap.len

(* --- profile export ------------------------------------------------- *)

type label_profile = {
  label : string;
  events : int;
  wall_self_s : float;
  vt_first : float;
  vt_last : float;
  delay_hist : (int * int) list;
}

(* Labels are registered when first scheduled; one whose events
   never ran is left out, as if it had never been seen. *)
let profile t =
  List.filter_map
    (fun (label, (s : label_stats)) ->
      if s.events = 0 then None
      else begin
        let hist = ref [] in
        for i = delay_buckets - 1 downto 0 do
          if s.delay_hist.(i) > 0 then hist := (i, s.delay_hist.(i)) :: !hist
        done;
        Some
          {
            label;
            events = s.events;
            wall_self_s = s.times.wall;
            vt_first = s.times.vt_first;
            vt_last = s.times.vt_last;
            delay_hist = !hist;
          }
      end)
    (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare t.labels)
