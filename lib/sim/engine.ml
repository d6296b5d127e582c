(* Each queued event carries the label it was scheduled under and its
   scheduling time, so the engine can account its own hot paths:
   per-label event counts, a histogram of virtual-time scheduling
   delays, and (opt-in, see Prof_clock) wall-clock self-time. *)

type ev = { mutable fn : unit -> unit; mutable label : string; mutable sched : float }

(* Event records are pooled: [step] recycles each record after
   running it, and [schedule_at] reuses recycled records instead of
   allocating.  At millions of events per run the queue then performs
   zero per-event allocation (the SoA Pqueue holds no records of its
   own).  The closure slot is blanked on recycle so the pool never
   pins a dead closure's environment. *)
let nop () = ()

(* Log2 buckets of (execution time - scheduling time) in virtual
   seconds.  Bucket 0 is "immediate" (delay <= 0); bucket i >= 1
   covers delays in [2^(i-11), 2^(i-10)), so ~1 ms lands in bucket 1
   and the top bucket absorbs everything from ~2^12 s up. *)
let delay_buckets = 24

let delay_bucket d =
  if d <= 0.0 then 0
  else begin
    let b = int_of_float (Float.floor (Float.log2 d)) + 11 in
    if b < 1 then 1 else if b > delay_buckets - 1 then delay_buckets - 1 else b
  end

let delay_bucket_lo i = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 11))

type label_stats = {
  mutable events : int;
  mutable wall : float;
  mutable vt_first : float;
  mutable vt_last : float;
  delay_hist : int array;
}

type t = {
  queue : ev Atum_util.Pqueue.t;
  mutable clock : float;
  mutable stopped : bool;
  mutable processed : int;
  mutable trace : Trace.t option;
  labels : (string, label_stats) Hashtbl.t;
  (* One-entry memo for the per-label stats lookup: schedule sites
     pass literal strings, so physical equality hits nearly always
     and the per-event hash lookup disappears. *)
  mutable memo_label : string;
  mutable memo_stats : label_stats option;
  mutable pool : ev array; (* stack of recycled records *)
  mutable pool_len : int;
}

let create () =
  {
    queue = Atum_util.Pqueue.create ();
    clock = 0.0;
    stopped = false;
    processed = 0;
    trace = None;
    labels = Hashtbl.create 32;
    memo_label = "";
    memo_stats = None;
    pool = [||];
    pool_len = 0;
  }

let now t = t.clock

let set_trace t trace = t.trace <- Some trace

let unlabeled = "(unlabeled)"

let take_ev t ~fn ~label ~sched =
  if t.pool_len = 0 then { fn; label; sched }
  else begin
    t.pool_len <- t.pool_len - 1;
    let e = t.pool.(t.pool_len) in
    e.fn <- fn;
    e.label <- label;
    e.sched <- sched;
    e
  end

let recycle_ev t e =
  e.fn <- nop;
  e.label <- unlabeled;
  if t.pool_len = Array.length t.pool then begin
    let cap = max 64 (2 * Array.length t.pool) in
    let pool = Array.make cap e in
    Array.blit t.pool 0 pool 0 t.pool_len;
    t.pool <- pool
  end;
  t.pool.(t.pool_len) <- e;
  t.pool_len <- t.pool_len + 1

let schedule_at ?(label = unlabeled) t ~time f =
  let time = if time < t.clock then t.clock else time in
  Atum_util.Pqueue.push t.queue time (take_ev t ~fn:f ~label ~sched:t.clock)

let schedule ?label t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at ?label t ~time:(t.clock +. delay) f

(* Tick times use the closed form [first +. k *. period], never a
   running [+. period] accumulator: repeated addition of an inexact
   period (0.1, say) drifts by one ulp per tick, and after enough
   ticks the k-th tick no longer lands where [first + k*period] says
   it should — tick counts and sampling timestamps stop being exact. *)
let every ?label t ?start ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with None -> t.clock +. period | Some s -> s in
  let k = ref 0 in
  let rec tick () =
    if f () then begin
      incr k;
      schedule_at ?label t ~time:(first +. (float_of_int !k *. period)) tick
    end
  in
  schedule_at ?label t ~time:first tick

let stats_for t label =
  match t.memo_stats with
  | Some s when t.memo_label == label -> s
  | _ ->
    let s =
      match Hashtbl.find_opt t.labels label with
      | Some s -> s
      | None ->
        let s =
          { events = 0; wall = 0.0; vt_first = 0.0; vt_last = 0.0;
            delay_hist = Array.make delay_buckets 0 }
        in
        Hashtbl.replace t.labels label s;
        s
    in
    t.memo_label <- label;
    t.memo_stats <- Some s;
    s

let account t (e : ev) ~time =
  let s = stats_for t e.label in
  if s.events = 0 then s.vt_first <- time;
  s.events <- s.events + 1;
  s.vt_last <- time;
  let b = delay_bucket (time -. e.sched) in
  s.delay_hist.(b) <- s.delay_hist.(b) + 1;
  s

let step t =
  match Atum_util.Pqueue.pop t.queue with
  | None -> false
  | Some (time, e) ->
    t.clock <- time;
    t.processed <- t.processed + 1;
    let s = account t e ~time in
    let fn = e.fn in
    recycle_ev t e;
    if Prof_clock.enabled then begin
      let t0 = Prof_clock.now () in
      fn ();
      s.wall <- s.wall +. (Prof_clock.now () -. t0)
    end
    else fn ();
    true

let run ?until ?max_events t =
  t.stopped <- false;
  let at_entry = t.processed in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  while !continue do
    if t.stopped || !budget = 0 then continue := false
    else begin
      match Atum_util.Pqueue.peek t.queue with
      | None ->
        (* The queue drained before the time limit: the clock must
           still advance to [until], otherwise rates derived from
           [now] are skewed by the gap after the last event. *)
        (match until with
        | Some limit when limit > t.clock -> t.clock <- limit
        | _ -> ());
        continue := false
      | Some (time, _) ->
        (match until with
        | Some limit when time > limit ->
          t.clock <- limit;
          continue := false
        | _ ->
          ignore (step t);
          decr budget)
    end
  done;
  match t.trace with
  | Some tr when Trace.enabled tr ->
    Trace.emit tr ~time:t.clock ~kind:"engine.run" ~size:(t.processed - at_entry) ()
  | _ -> ()

let stop t = t.stopped <- true

let events_processed t = t.processed

let pending t = Atum_util.Pqueue.size t.queue

(* --- profile export ------------------------------------------------- *)

type label_profile = {
  label : string;
  events : int;
  wall_self_s : float;
  vt_first : float;
  vt_last : float;
  delay_hist : (int * int) list;
}

let profile t =
  List.map
    (fun (label, (s : label_stats)) ->
      let hist = ref [] in
      for i = delay_buckets - 1 downto 0 do
        if s.delay_hist.(i) > 0 then hist := (i, s.delay_hist.(i)) :: !hist
      done;
      {
        label;
        events = s.events;
        wall_self_s = s.wall;
        vt_first = s.vt_first;
        vt_last = s.vt_last;
        delay_hist = !hist;
      })
    (Atum_util.Hashtbl_ext.sorted_bindings ~cmp:String.compare t.labels)

let profile_json t =
  let open Atum_util.Json in
  let rows =
    List.map
      (fun p ->
        Obj
          [
            ("label", String p.label);
            ("events", Int p.events);
            ("wall_self_s", Float p.wall_self_s);
            ("vt_first", Float p.vt_first);
            ("vt_last", Float p.vt_last);
            ( "delay_hist",
              List
                (List.map
                   (fun (b, n) -> Obj [ ("bucket", Int b); ("count", Int n) ])
                   p.delay_hist) );
          ])
      (profile t)
  in
  Obj
    [
      ("wall_clock_enabled", Bool Prof_clock.enabled);
      ("events_total", Int t.processed);
      ("labels", List rows);
    ]
