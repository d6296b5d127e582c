open Atum_sim
module A = Artifact

(* Minor-heap words allocated by [f ()]; the first reading stays
   unboxed across the call, so the probe allocates nothing itself. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check bool) "clock at last event" true (Engine.now e = 3.0)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      fired := "outer" :: !fired;
      Engine.schedule e ~delay:1.0 (fun () -> fired := "inner" :: !fired));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !fired);
  Alcotest.(check bool) "clock" true (Engine.now e = 2.0)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check bool) "clock clamped" true (Engine.now e = 5.5);
  Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

let test_engine_until_empty_queue_advances_clock () =
  (* Regression: when the queue drains before [until], the clock must
     still advance to [until] — callers rely on [run_for d] moving
     simulated time by exactly [d] even through quiet periods. *)
  let e = Engine.create () in
  Engine.schedule e ~delay:2.0 (fun () -> ());
  Engine.run ~until:10.0 e;
  Alcotest.(check (float 1e-9)) "advances past last event" 10.0 (Engine.now e);
  Engine.run ~until:15.0 e;
  Alcotest.(check (float 1e-9)) "advances with empty queue" 15.0 (Engine.now e);
  Engine.run ~until:4.0 e;
  Alcotest.(check (float 1e-9)) "never moves backwards" 15.0 (Engine.now e)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () -> incr count)
  done;
  Engine.run ~max_events:4 e;
  Alcotest.(check int) "bounded" 4 !count

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let at = ref nan in
  Engine.schedule e ~delay:5.0 (fun () ->
      Engine.schedule e ~delay:(-3.0) (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check bool) "clamped to now" true (!at = 5.0)

let test_engine_every_no_drift () =
  (* Regression for float-accumulation drift: 0.1 is not representable
     in binary, so a [t := !t +. period] loop slides off the grid and
     long runs gain or lose ticks.  The engine uses the closed form
     [start +. k *. period]; over 10k ticks the tick times must stay
     exactly on it. *)
  let period = 0.1 in
  let horizon = 1000.0 in
  let e = Engine.create () in
  let ticks = ref 0 in
  let last = ref nan in
  Engine.every e ~period (fun () ->
      incr ticks;
      last := Engine.now e;
      true);
  Engine.run ~until:horizon e;
  (* Expected count/time computed with the engine's own closed form,
     so the assertion is exact, not approximate. *)
  let expected = ref 0 in
  while period +. (float_of_int !expected *. period) <= horizon do
    incr expected
  done;
  Alcotest.(check int)
    (Printf.sprintf "exactly %d ticks in %.0f s" !expected horizon)
    !expected !ticks;
  Alcotest.(check bool) "final tick exactly on the closed-form grid" true
    (!last = period +. (float_of_int (!ticks - 1) *. period));
  (* Document the drift the closed form avoids: naive accumulation
     ends somewhere else after this many additions. *)
  let accumulated = ref 0.0 in
  for _ = 1 to !ticks do
    accumulated := !accumulated +. period
  done;
  Alcotest.(check bool) "naive accumulation drifts off the grid" true
    (!accumulated <> !last)

let test_engine_every_rejects_bad_period () =
  let e = Engine.create () in
  Alcotest.check_raises "non-positive period"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      Engine.every e ~period:0.0 (fun () -> true))

let test_engine_profile_accounting () =
  let e = Engine.create () in
  Engine.schedule ~label:"a" e ~delay:1.0 (fun () -> ());
  Engine.schedule ~label:"a" e ~delay:4.0 (fun () -> ());
  Engine.schedule ~label:"b" e ~delay:2.0 (fun () -> ());
  Engine.schedule e ~delay:3.0 (fun () -> ());
  Engine.run e;
  let prof = Engine.profile e in
  Alcotest.(check (list string)) "labels sorted, unlabeled accounted"
    [ "(unlabeled)"; "a"; "b" ]
    (List.map (fun (p : Engine.label_profile) -> p.Engine.label) prof);
  let a = List.nth prof 1 in
  Alcotest.(check int) "a ran twice" 2 a.Engine.events;
  Alcotest.(check (float 1e-9)) "first virtual time" 1.0 a.Engine.vt_first;
  Alcotest.(check (float 1e-9)) "last virtual time" 4.0 a.Engine.vt_last;
  (* ATUM_PROF_WALL is unset under dune runtest, so self-times must be
     identically zero — that's what keeps profiles deterministic. *)
  List.iter
    (fun (p : Engine.label_profile) ->
      Alcotest.(check (float 0.0)) (p.Engine.label ^ " wall off") 0.0 p.Engine.wall_self_s)
    prof;
  (* Delays of 1..4 s land in the log2 buckets for [1,2) and [2,4)
     and [4,8): lower bounds 1, 2 and 4 seconds. *)
  Alcotest.(check (float 1e-12)) "bucket 11 lower bound" 1.0 (Engine.delay_bucket_lo 11);
  Alcotest.(check (float 1e-12)) "bucket 13 lower bound" 4.0 (Engine.delay_bucket_lo 13);
  Alcotest.(check (list (pair int int))) "a's delay histogram"
    [ (11, 1); (13, 1) ] a.Engine.delay_hist;
  match Atum_sim.Artifact.(encode profile (profile_of e)) with
  | Atum_util.Json.Obj fields ->
    Alcotest.(check bool) "wall_clock_enabled false" true
      (List.assoc_opt "wall_clock_enabled" fields = Some (Atum_util.Json.Bool false));
    Alcotest.(check bool) "events_total matches" true
      (List.assoc_opt "events_total" fields
      = Some (Atum_util.Json.Int (Engine.events_processed e)))
  | _ -> Alcotest.fail "profile JSON not an object"

let test_engine_profile_omits_unrun_labels () =
  let e = Engine.create () in
  Engine.schedule ~label:"ran" e ~delay:1.0 (fun () -> ());
  Engine.schedule ~label:"later" e ~delay:10.0 (fun () -> ());
  Engine.run ~until:5.0 e;
  let labels () = List.map (fun (p : Engine.label_profile) -> p.Engine.label) (Engine.profile e) in
  Alcotest.(check (list string)) "scheduled but not yet run: absent" [ "ran" ] (labels ());
  Engine.run e;
  Alcotest.(check (list string)) "present once it ran" [ "later"; "ran" ] (labels ())

let test_engine_rejects_nan () =
  let e = Engine.create () in
  let msg = Invalid_argument "Engine.schedule_at: NaN time" in
  Alcotest.check_raises "schedule_at" msg (fun () ->
      Engine.schedule_at e ~time:Float.nan (fun () -> ()));
  Alcotest.check_raises "schedule" msg (fun () ->
      Engine.schedule e ~delay:Float.nan (fun () -> ()));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* Once the slot arrays and the heap have grown to size, an event
   costs no allocation: [schedule] + [step] of a preallocated
   closure, under alternating labels and over a heap that holds
   other events, allocates zero minor words. *)
let test_engine_step_alloc_free () =
  let e = Engine.create () in
  let f () = () in
  for _ = 1 to 100 do
    Engine.schedule ~label:"far" e ~delay:1e6 f
  done;
  let pairs () =
    for i = 1 to 10_000 do
      if i land 1 = 0 then Engine.schedule ~label:"even" e ~delay:1.0 f
      else Engine.schedule e ~delay:0.5 f;
      ignore (Engine.step e)
    done
  in
  pairs ();
  Alcotest.(check (float 0.0)) "minor words" 0.0 (minor_words_of pairs);
  Alcotest.(check int) "background events still queued" 100 (Engine.pending e)

(* Differential check of the event queue against a reference model:
   random interleavings of [schedule] / [schedule_at] (equal times,
   past times, nested scheduling at the current instant), [step] and
   [run ~until] / [~max_events].  Every event must run at the
   minimum (time, insertion seq) of the model's pending set. *)
type engine_op =
  | Sched of float (* delay; negative is clamped *)
  | Sched_at of float (* absolute time; may be in the past *)
  | Step
  | Run_until of float (* offset from the clock *)
  | Run_max of int

let engine_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (oneofl [ 0.0; 0.0; 0.5; 1.0; 1.0; 2.5; -1.0 ]));
        (3, map (fun x -> Sched_at x) (oneofl [ 0.0; 1.0; 1.0; 2.0; 3.5 ]));
        (2, return Step);
        (1, map (fun x -> Run_until x) (oneofl [ 0.25; 1.0; 2.0; 4.0 ]));
        (1, map (fun n -> Run_max n) (int_range 0 4));
      ])

let show_engine_op = function
  | Sched d -> Printf.sprintf "Sched %g" d
  | Sched_at x -> Printf.sprintf "Sched_at %g" x
  | Step -> "Step"
  | Run_until x -> Printf.sprintf "Run_until +%g" x
  | Run_max n -> Printf.sprintf "Run_max %d" n

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine runs events in (time, insertion seq) order" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list show_engine_op)
       QCheck.Gen.(list_size (int_range 0 60) engine_op_gen))
    (fun ops ->
      let e = Engine.create () in
      (* The model: pending (time, seq, id), and the next seq / id. *)
      let pending = ref [] and next_seq = ref 0 and ok = ref true in
      let rec add ~nested time =
        let id = !next_seq in
        let time = Float.max time (Engine.now e) in
        pending := (time, id) :: !pending;
        incr next_seq;
        fun () ->
          let least = List.fold_left min (Float.infinity, max_int) !pending in
          if least <> (time, id) || Engine.now e <> time then ok := false;
          pending := List.filter (fun p -> p <> (time, id)) !pending;
          (* Driver events nest one child at the current instant,
             alternating between the two entry points. *)
          if not nested then
            if id land 1 = 0 then
              Engine.schedule e ~delay:0.0 (add ~nested:true (Engine.now e))
            else Engine.schedule_at e ~time:(Engine.now e) (add ~nested:true (Engine.now e))
      in
      List.iter
        (fun op ->
          (match op with
          | Sched d ->
            Engine.schedule e ~delay:d (add ~nested:false (Engine.now e +. Float.max d 0.0))
          | Sched_at x -> Engine.schedule_at e ~time:x (add ~nested:false x)
          | Step -> if Engine.step e = (!pending = []) then ok := false
          | Run_until x ->
            let limit = Engine.now e +. x in
            Engine.run ~until:limit e;
            if Engine.now e <> limit || List.exists (fun (t, _) -> t <= limit) !pending then
              ok := false
          | Run_max n ->
            let before = Engine.events_processed e in
            Engine.run ~max_events:n e;
            let ran = Engine.events_processed e - before in
            if ran > n || (ran < n && !pending <> []) then ok := false);
          if Engine.pending e <> List.length !pending then ok := false)
        ops;
      Engine.run e;
      !ok && !pending = [])

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let make_net ?(config = Network.datacenter_config ~seed:1) () =
  let e = Engine.create () in
  let net : string Network.t = Network.create e config in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  Network.register net 2 (fun ~src msg -> got := (src, msg) :: !got);
  Network.send net ~src:1 ~dst:2 "hello";
  Engine.run e;
  Alcotest.(check bool) "delivered" true (!got = [ (1, "hello") ]);
  Alcotest.(check int) "counted" 1 (Network.messages_delivered net)

let test_network_latency_positive () =
  let e, net = make_net () in
  let at = ref nan in
  Network.register net 2 (fun ~src:_ _ -> at := Engine.now e);
  Network.send net ~src:1 ~dst:2 "x";
  Engine.run e;
  Alcotest.(check bool) "nonzero latency" true (!at > 0.0 && !at < 0.01)

let test_network_unregistered_dropped () =
  let e, net = make_net () in
  Network.send net ~src:1 ~dst:99 "x";
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Network.messages_dropped net);
  Alcotest.(check int) "not delivered" 0 (Network.messages_delivered net)

let test_network_partition () =
  let e, net = make_net () in
  let got = ref 0 in
  Network.register net 2 (fun ~src:_ _ -> incr got);
  Network.set_partition net 1 7;
  Network.send net ~src:1 ~dst:2 "x";
  Engine.run e;
  Alcotest.(check int) "partitioned" 0 !got;
  Network.set_partition net 1 0;
  Network.send net ~src:1 ~dst:2 "y";
  Engine.run e;
  Alcotest.(check int) "healed" 1 !got

let test_network_crash_isolates () =
  let e, net = make_net () in
  let got = ref 0 in
  Network.register net 2 (fun ~src:_ _ -> incr got);
  Network.crash net 2;
  Network.send net ~src:1 ~dst:2 "x";
  Engine.run e;
  Alcotest.(check int) "crashed node unreachable" 0 !got

let test_network_two_crashed_nodes_cannot_talk () =
  let e, net = make_net () in
  let got = ref 0 in
  Network.register net 2 (fun ~src:_ _ -> incr got);
  Network.crash net 1;
  Network.crash net 2;
  Network.send net ~src:1 ~dst:2 "x";
  Engine.run e;
  Alcotest.(check int) "distinct isolation tags" 0 !got

let test_network_drop_probability () =
  let e = Engine.create () in
  let config = { (Network.datacenter_config ~seed:3) with Network.drop_probability = 0.5 } in
  let net : int Network.t = Network.create e config in
  let got = ref 0 in
  Network.register net 2 (fun ~src:_ _ -> incr got);
  for _ = 1 to 1000 do
    Network.send net ~src:1 ~dst:2 0
  done;
  Engine.run e;
  Alcotest.(check bool) "about half lost" true (!got > 400 && !got < 600)

let test_network_wan_latency_distribution () =
  let e = Engine.create () in
  let net : int Network.t = Network.create e (Network.wan_config ~seed:5) in
  let xs = List.init 5000 (fun _ -> Network.sample_latency net) in
  let median = Atum_util.Stats.median xs in
  Alcotest.(check bool) "median near 80ms" true (median > 0.05 && median < 0.12);
  Alcotest.(check bool) "floor respected" true (List.for_all (fun x -> x >= 0.02) xs);
  let p999 = Atum_util.Stats.percentile xs 99.9 in
  Alcotest.(check bool) "tail is heavy" true (p999 > 0.3)

let test_network_mid_flight_partition () =
  let e, net = make_net () in
  let got = ref 0 in
  Network.register net 2 (fun ~src:_ _ -> incr got);
  Network.send net ~src:1 ~dst:2 "x";
  (* Partition before delivery happens. *)
  Network.crash net 2;
  Engine.run e;
  Alcotest.(check int) "message in flight dropped" 0 !got

let test_network_fixed_latency () =
  let e = Engine.create () in
  let config =
    { (Network.datacenter_config ~seed:1) with Network.latency = Network.Fixed 0.25 }
  in
  let net : int Network.t = Network.create e config in
  let at = ref nan in
  Network.register net 2 (fun ~src:_ _ -> at := Engine.now e);
  Network.send net ~src:1 ~dst:2 0;
  Engine.run e;
  Alcotest.(check (float 1e-9)) "exactly the fixed latency" 0.25 !at

let test_network_node_capacity_queues () =
  (* A burst to one receiver drains at the configured rate. *)
  let e = Engine.create () in
  let config =
    {
      (Network.datacenter_config ~seed:2) with
      Network.latency = Network.Fixed 0.001;
      node_capacity = Some 10.0 (* 100 ms per message *);
    }
  in
  let net : int Network.t = Network.create e config in
  let times = ref [] in
  Network.register net 9 (fun ~src:_ _ -> times := Engine.now e :: !times);
  for _ = 1 to 5 do
    Network.send net ~src:1 ~dst:9 0
  done;
  Engine.run e;
  let times = List.rev !times in
  Alcotest.(check int) "all delivered" 5 (List.length times);
  let last = List.nth times 4 in
  Alcotest.(check bool)
    (Printf.sprintf "last at %.2fs (queueing)" last)
    true
    (last >= 0.5 -. 1e-6);
  (* Arrival order respected, spaced by the service time. *)
  let rec spaced = function
    | a :: (b :: _ as rest) -> b -. a >= 0.1 -. 1e-9 && spaced rest
    | _ -> true
  in
  Alcotest.(check bool) "service spacing" true (spaced times)

let test_network_capacity_idle_resets () =
  let e = Engine.create () in
  let config =
    {
      (Network.datacenter_config ~seed:3) with
      Network.latency = Network.Fixed 0.001;
      node_capacity = Some 10.0;
    }
  in
  let net : int Network.t = Network.create e config in
  let at = ref nan in
  Network.register net 9 (fun ~src:_ _ -> at := Engine.now e);
  Network.send net ~src:1 ~dst:9 0;
  Engine.run e;
  (* Long idle period; the next message must not queue behind history. *)
  Engine.schedule e ~delay:10.0 (fun () -> Network.send net ~src:1 ~dst:9 0);
  Engine.run e;
  Alcotest.(check bool) "no stale queueing" true (!at < 10.3)

let test_network_capacity_not_charged_for_presend_drops () =
  (* Regression: messages dropped before transit (partitioned sender)
     must not occupy the receiver's service queue. *)
  let e = Engine.create () in
  let config =
    {
      (Network.datacenter_config ~seed:4) with
      Network.latency = Network.Fixed 0.001;
      node_capacity = Some 10.0;
    }
  in
  let net : int Network.t = Network.create e config in
  let at = ref nan in
  Network.register net 9 (fun ~src:_ _ -> at := Engine.now e);
  Network.set_partition net 9 7;
  for _ = 1 to 5 do
    Network.send net ~src:1 ~dst:9 0
  done;
  Network.set_partition net 9 0;
  Network.send net ~src:1 ~dst:9 0;
  Engine.run e;
  Alcotest.(check int) "five dropped" 5 (Network.messages_dropped net);
  Alcotest.(check int) "one delivered" 1 (Network.messages_delivered net);
  Alcotest.(check bool)
    (Printf.sprintf "no queueing behind dropped traffic (at %.3fs)" !at)
    true (!at < 0.2)

let test_network_capacity_not_charged_for_arrival_drops () =
  (* Regression: messages that arrive but drop (no handler) must not
     occupy the receiver's service queue either. *)
  let e = Engine.create () in
  let config =
    {
      (Network.datacenter_config ~seed:5) with
      Network.latency = Network.Fixed 0.001;
      node_capacity = Some 10.0;
    }
  in
  let net : int Network.t = Network.create e config in
  let at = ref nan in
  (* No handler registered yet: these arrive at t=0.001 and drop. *)
  for _ = 1 to 5 do
    Network.send net ~src:1 ~dst:9 0
  done;
  Engine.schedule e ~delay:0.05 (fun () ->
      Network.register net 9 (fun ~src:_ _ -> at := Engine.now e);
      Network.send net ~src:1 ~dst:9 0);
  Engine.run e;
  Alcotest.(check int) "five dropped" 5 (Network.messages_dropped net);
  (* Leaky accounting would push the finish time past 0.6s. *)
  Alcotest.(check bool)
    (Printf.sprintf "no stale service tail (at %.3fs)" !at)
    true (!at < 0.2)

let test_network_drop_reason_counters () =
  let e = Engine.create () in
  let config =
    { (Network.datacenter_config ~seed:6) with Network.latency = Network.Fixed 0.001 }
  in
  let net : int Network.t = Network.create e config in
  Network.register net 2 (fun ~src:_ _ -> ());
  Network.set_partition net 1 7;
  Network.send net ~src:1 ~dst:2 0;
  Network.set_partition net 1 0;
  Network.send net ~src:1 ~dst:99 0;
  Engine.run e;
  let m = Network.metrics net in
  Alcotest.(check int) "partition" 1 (Metrics.counter m "net.drop.partition");
  Alcotest.(check int) "no_handler" 1 (Metrics.counter m "net.drop.no_handler");
  Alcotest.(check int) "aggregate" 2 (Network.messages_dropped net);
  let lossy = Engine.create () in
  let net2 : int Network.t =
    Network.create lossy
      { (Network.datacenter_config ~seed:7) with Network.drop_probability = 1.0 }
  in
  Network.register net2 2 (fun ~src:_ _ -> ());
  for _ = 1 to 3 do
    Network.send net2 ~src:1 ~dst:2 0
  done;
  Engine.run lossy;
  Alcotest.(check int) "loss" 3 (Metrics.counter (Network.metrics net2) "net.drop.loss")

(* --- equivalence against a per-pair reference ------------------------ *)

(* The straightforward network the batched one must reproduce: every
   surviving (src, dst) pair of a round is materialised as a list
   element and carried through transit.  Same admission order, same
   RNG draws, same engine labels.  A settled destination is modelled
   as the spec states it: the network's predicate is read once per
   destination when the batch arrives (unless [traced] or under
   [node_capacity]), and its cells are then delivered to a no-op
   handler. *)
module Ref_net = struct
  type t = {
    engine : Engine.t;
    config : Network.config;
    traced : bool;
    rng : Atum_util.Rng.t;
    metrics : Metrics.t;
    handlers : (int, src:int -> int -> unit) Hashtbl.t;
    partitions : (int, int) Hashtbl.t;
    crashed : (int, unit) Hashtbl.t;
    ready : (int, float) Hashtbl.t;
    mutable loss_boost : float;
    mutable settled : (int -> int -> bool) option;
    mutable post_heal : bool;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable bytes : int;
  }

  let create ~traced engine config =
    {
      engine;
      config;
      traced;
      rng = Atum_util.Rng.create config.Network.seed;
      metrics = Metrics.create ();
      handlers = Hashtbl.create 16;
      partitions = Hashtbl.create 16;
      crashed = Hashtbl.create 16;
      ready = Hashtbl.create 16;
      loss_boost = 0.0;
      settled = None;
      post_heal = false;
      sent = 0;
      delivered = 0;
      dropped = 0;
      bytes = 0;
    }

  let sample_latency t =
    match t.config.Network.latency with
    | Network.Fixed d -> d
    | Network.Uniform (lo, hi) -> lo +. Atum_util.Rng.float t.rng (hi -. lo)
    | Network.Lognormal { mu; sigma; floor } ->
      Float.max floor (Atum_util.Rng.lognormal t.rng ~mu ~sigma)

  let drop t reason =
    t.dropped <- t.dropped + 1;
    Metrics.incr t.metrics ("net.drop." ^ reason)

  let part t n = Option.value ~default:0 (Hashtbl.find_opt t.partitions n)

  let severed t ~src ~dst =
    if Hashtbl.mem t.crashed src || Hashtbl.mem t.crashed dst then Some "crash"
    else if part t src <> part t dst then Some "partition"
    else None

  let arrive ?(settled = false) t ~src ~dst msg =
    match severed t ~src ~dst with
    | Some reason -> drop t reason
    | None -> (
      match Hashtbl.find_opt t.handlers dst with
      | None -> drop t "no_handler"
      | Some _ -> (
        let deliver () =
          match Hashtbl.find_opt t.handlers dst with
          | None -> drop t "no_handler"
          | Some h ->
            t.delivered <- t.delivered + 1;
            if t.post_heal then Metrics.incr t.metrics "net.deliver.post_heal";
            if not settled then h ~src msg
        in
        match t.config.Network.node_capacity with
        | None -> deliver ()
        | Some capacity ->
          let arrival = Engine.now t.engine in
          let ready = Option.value ~default:0.0 (Hashtbl.find_opt t.ready dst) in
          let finish = Float.max arrival ready +. (1.0 /. capacity) in
          Hashtbl.replace t.ready dst finish;
          Engine.schedule ~label:"net.service" t.engine ~delay:(finish -. arrival) deliver))

  let admit t ~size ~src ~dst =
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + size;
    let cut = severed t ~src ~dst in
    let lost =
      Atum_util.Rng.bernoulli t.rng
        (Float.min 1.0 (t.config.Network.drop_probability +. t.loss_boost))
    in
    match cut with
    | Some reason ->
      drop t reason;
      false
    | None ->
      if lost then drop t "loss";
      not lost

  let send t ~size ~src ~dst msg =
    if admit t ~size ~src ~dst then
      Engine.schedule ~label:"net.transit" t.engine ~delay:(sample_latency t) (fun () ->
          arrive t ~src ~dst msg)

  let send_group t ~srcs ~dsts msg =
    let pairs =
      List.concat_map
        (fun (src, size) ->
          List.filter_map
            (fun dst -> if admit t ~size ~src ~dst then Some (src, dst) else None)
            dsts)
        srcs
    in
    if pairs <> [] then
      Engine.schedule ~label:"net.transit.batch" t.engine ~delay:(sample_latency t) (fun () ->
          let settled =
            match t.settled with
            | Some f when (not t.traced) && Option.is_none t.config.Network.node_capacity ->
              List.filter (fun d -> f d msg) dsts
            | _ -> []
          in
          List.iter
            (fun (src, dst) -> arrive ~settled:(List.mem dst settled) t ~src ~dst msg)
            pairs)
end

(* The network surface the scenario drives, so one script runs against
   both implementations. *)
type net_ops = {
  engine : Engine.t;
  metrics : Metrics.t;
  send : size:int -> src:int -> dst:int -> int -> unit;
  send_multi : size:int -> src:int -> dsts:int list -> int -> unit;
  send_group : srcs:(int * int) list -> dsts:int list -> int -> unit;
  set_settled : (int -> int -> bool) -> unit;
  register : int -> (src:int -> int -> unit) -> unit;
  unregister : int -> unit;
  set_partition : int -> int -> unit;
  heal : unit -> unit;
  crash : int -> unit;
  recover : int -> unit;
  set_loss_boost : float -> unit;
  counters : unit -> int * int * int * int;
  sample_latency : unit -> float;
}

let real_ops ?trace ~traced config =
  let engine = Engine.create () in
  let trace =
    match trace with Some _ -> trace | None -> if traced then Some (Trace.create ~enabled:true ()) else None
  in
  let net : int Network.t = Network.create ?trace engine config in
  {
    engine;
    metrics = Network.metrics net;
    send = (fun ~size ~src ~dst m -> Network.send ~size net ~src ~dst m);
    send_multi = (fun ~size ~src ~dsts m -> Network.send_multi ~size net ~src ~dsts m);
    send_group =
      (fun ~srcs ~dsts m ->
        Network.send_group net ~srcs:(Array.of_list srcs) ~dsts:(Array.of_list dsts) m);
    set_settled = Network.set_settled net;
    register = Network.register net;
    unregister = Network.unregister net;
    set_partition = Network.set_partition net;
    heal = (fun () -> Network.heal net);
    crash = Network.crash net;
    recover = Network.recover net;
    set_loss_boost = Network.set_loss_boost net;
    counters =
      (fun () ->
        ( Network.messages_sent net,
          Network.messages_delivered net,
          Network.messages_dropped net,
          Network.bytes_sent net ));
    sample_latency = (fun () -> Network.sample_latency net);
  }

(* [honour_settled:false] is the network before settled columns: every
   surviving cell reaches its handler. *)
let ref_ops ~traced ~honour_settled config =
  let engine = Engine.create () in
  let r = Ref_net.create ~traced engine config in
  {
    engine;
    metrics = r.metrics;
    send = (fun ~size ~src ~dst m -> Ref_net.send r ~size ~src ~dst m);
    send_multi = (fun ~size ~src ~dsts m -> Ref_net.send_group r ~srcs:[ (src, size) ] ~dsts m);
    send_group = (fun ~srcs ~dsts m -> Ref_net.send_group r ~srcs ~dsts m);
    set_settled = (fun f -> if honour_settled then r.settled <- Some f);
    register = Hashtbl.replace r.handlers;
    unregister = Hashtbl.remove r.handlers;
    set_partition = Hashtbl.replace r.partitions;
    heal =
      (fun () ->
        Hashtbl.reset r.partitions;
        r.post_heal <- true);
    crash = (fun n -> Hashtbl.replace r.crashed n ());
    recover =
      (fun n ->
        Hashtbl.remove r.crashed n;
        r.post_heal <- true);
    set_loss_boost = (fun p -> r.loss_boost <- p);
    counters = (fun () -> (r.sent, r.delivered, r.dropped, r.bytes));
    sample_latency = (fun () -> Ref_net.sample_latency r);
  }

type outcome = {
  log : (float * int * int * int * bool) list;
      (* (time, src, dst, msg, quiet), handler-call order *)
  counts : int * int * int * int; (* sent, delivered, dropped, bytes *)
  reasons : (string * int) list;
  labels : (string * int) list;
  next_latency : float;
}

(* A seeded script of random srcs x dsts rounds interleaved with
   partitions, heals, crashes, recoveries, loss bursts, handlers
   removed while their messages are in flight, and partial runs.  Some
   handlers send during arrival.  The script's own RNG is separate
   from the network's, so both implementations see the same script.

   A node goes quiet once it handles a [1] (as a gossip receiver does
   once it has delivered): its handler then does nothing but log the
   call.  Quiet nodes, and the two ids never registered, are the
   settled destinations of a message below [unsettled]; the script
   adds [unsettled] to the message of some rounds, and the handlers
   strip it.
   Inside an event a node can only turn quiet.  Between events the
   script also quiets and wakes nodes (as a restart would), so whole
   rounds are settled often; a settled destination stays settled for
   the rest of the arrival that read it. *)
let run_script ~seed ops =
  let n = 10 in
  let rng = Atum_util.Rng.create seed in
  let log = ref [] in
  let quiet = Array.make n false in
  let unsettled = 8 in
  ops.set_settled (fun d m -> m < unsettled && (d >= n || quiet.(d)));
  let pick () = Atum_util.Rng.int rng (n + 2) (* two ids never registered *) in
  let rec handler i ~src m =
    log := (Engine.now ops.engine, src, i, m, quiet.(i)) :: !log;
    let m = m mod unsettled in
    if not quiet.(i) then begin
      if m = 1 then quiet.(i) <- true;
      if m > 0 then
        if i mod 4 = 0 then
          ops.send_group ~srcs:[ (i, 16); ((i + 5) mod n, 24) ]
            ~dsts:[ (i + 1) mod n; (i + 2) mod n ] (m - 1)
        else if i mod 4 = 1 then ops.send ~size:8 ~src:i ~dst:((i + 3) mod n) (m - 1)
    end
  and register i = ops.register i (handler i) in
  for i = 0 to n - 1 do
    register i
  done;
  for _ = 1 to 80 do
    let msg = Atum_util.Rng.int rng 3 in
    (match Atum_util.Rng.int rng 12 with
    | 0 | 1 | 2 ->
      let srcs =
        List.init (1 + Atum_util.Rng.int rng 3) (fun _ ->
            let src = pick () in
            (src, 8 + Atum_util.Rng.int rng 64))
      in
      let dsts = List.init (Atum_util.Rng.int rng 6) (fun _ -> pick ()) in
      if Atum_util.Rng.bool rng then ops.send_group ~srcs ~dsts msg
      else ops.send_group ~srcs ~dsts (msg + unsettled)
    | 3 ->
      let dsts = List.init (Atum_util.Rng.int rng 5) (fun _ -> pick ()) in
      ops.send_multi ~size:40 ~src:(pick ()) ~dsts msg
    | 4 -> ops.send ~size:12 ~src:(pick ()) ~dst:(pick ()) msg
    | 5 ->
      if Atum_util.Rng.int rng 4 = 0 then ops.heal ()
      else ops.set_partition (pick ()) (Atum_util.Rng.int rng 3)
    | 6 ->
      let node = pick () in
      if Atum_util.Rng.bool rng then ops.crash node else ops.recover node
    | 7 -> ops.set_loss_boost (List.nth [ 0.0; 0.2; 0.6 ] (Atum_util.Rng.int rng 3))
    | 8 ->
      let node = Atum_util.Rng.int rng n in
      if Atum_util.Rng.bool rng then ops.unregister node else register node
    | 9 -> quiet.(Atum_util.Rng.int rng n) <- Atum_util.Rng.bool rng
    | 10 ->
      (* Lift every fault, so rounds also arrive on a fault-free network. *)
      ops.heal ();
      for i = 0 to n + 1 do
        ops.recover i
      done
    | _ ->
      Engine.run ops.engine ~until:(Engine.now ops.engine +. Atum_util.Rng.float rng 0.2))
  done;
  Engine.run ops.engine;
  let reasons =
    List.map
      (fun k -> (k, Metrics.counter ops.metrics k))
      [ "net.drop.crash"; "net.drop.partition"; "net.drop.loss"; "net.drop.no_handler";
        "net.deliver.post_heal" ]
  in
  {
    log = List.rev !log;
    counts = ops.counters ();
    reasons;
    labels = List.map (fun p -> (p.Engine.label, p.Engine.events)) (Engine.profile ops.engine);
    next_latency = ops.sample_latency ();
  }

(* %h prints the delivery time exactly. *)
let show_log =
  List.map (fun (t, s, d, m, q) ->
      Printf.sprintf "%h %d->%d #%d%s" t s d m (if q then " quiet" else ""))

let quiet_calls o = List.length (List.filter (fun (_, _, _, _, q) -> q) o.log)

let check_same_run ctx ~log want got =
  Alcotest.(check (list string)) (ctx "handler calls") (log want) (log got);
  let quad (a, b, c, d) = [ a; b; c; d ] in
  Alcotest.(check (list int)) (ctx "sent/delivered/dropped/bytes") (quad want.counts)
    (quad got.counts);
  Alcotest.(check (list (pair string int))) (ctx "drop reasons") want.reasons got.reasons;
  Alcotest.(check (list (pair string int))) (ctx "engine labels") want.labels got.labels;
  Alcotest.(check (float 0.0)) (ctx "next latency draw") want.next_latency got.next_latency

(* The batched network against the reference, under loss, crashes,
   partitions, missing handlers and post-heal traffic.  It must skip
   exactly the calls the reference skips for settled destinations, and
   every other outcome must equal the reference's with no skipping at
   all: the handler calls that remain, in order, every counter, every
   drop reason and the post-heal count.  Under tracing and
   [node_capacity] nothing is skipped. *)
let test_network_matches_reference () =
  let wan = { (Network.wan_config ~seed:11) with Network.drop_probability = 0.1 } in
  let capped =
    { (Network.datacenter_config ~seed:12) with
      Network.drop_probability = 0.05;
      node_capacity = Some 300.0 }
  in
  List.iter
    (fun (name, config, traced) ->
      let skipped = ref 0 in
      for seed = 1 to 6 do
        let got = run_script ~seed (real_ops ~traced config) in
        let want = run_script ~seed (ref_ops ~traced ~honour_settled:true config) in
        let plain = run_script ~seed (ref_ops ~traced ~honour_settled:false config) in
        let ctx what = Printf.sprintf "%s seed %d: %s" name seed what in
        Alcotest.(check bool) (ctx "nontrivial") true (List.length want.log > 10);
        check_same_run ctx ~log:(fun o -> show_log o.log) want got;
        let active o = show_log (List.filter (fun (_, _, _, _, q) -> not q) o.log) in
        check_same_run (fun w -> ctx ("vs no skipping, " ^ w)) ~log:active plain got;
        skipped := !skipped + (quiet_calls plain - quiet_calls got)
      done;
      let untraced_uncapped = (not traced) && Option.is_none config.Network.node_capacity in
      Alcotest.(check bool)
        (name ^ ": settled cells skipped only without tracing and node_capacity")
        untraced_uncapped (!skipped > 0))
    [ ("wan", wan, false); ("wan traced", wan, true); ("capacity", capped, false) ]

(* Fault state per batch.  While an unrelated node is crashed and
   another partitioned, batches among live nodes of one partition take
   the fault-free paths; batches touching the faulted nodes, or a node
   crashed while they are in flight or by a handler during their
   arrival, are still cut cell by cell.  Every outcome must equal the
   per-pair reference's, settled or not. *)
let run_fault_script ops =
  let log = ref [] in
  for i = 0 to 9 do
    ops.register i (fun ~src m ->
        log := (Engine.now ops.engine, src, i, m, false) :: !log;
        if m = 7 then ops.crash 6)
  done;
  ops.crash 9;
  ops.set_partition 8 1;
  ops.recover 7;
  let srcs = [ (0, 16); (1, 24); (2, 32) ] in
  List.iter
    (fun settled ->
      ops.set_settled (fun d _ -> settled d);
      ops.send_group ~srcs ~dsts:[ 3; 4; 5; 6 ] 0;
      ops.send_group ~srcs ~dsts:[ 3; 8; 9 ] 0;
      ops.send_group ~srcs:[ (0, 8); (8, 8) ] ~dsts:[ 3; 4 ] 0;
      ops.send_group ~srcs:[ (1, 8); (9, 8) ] ~dsts:[ 3 ] 0;
      Engine.run ops.engine;
      (* Crashed while in flight: column 4 is cut at arrival. *)
      ops.send_group ~srcs ~dsts:[ 3; 4; 5 ] 0;
      ops.crash 4;
      Engine.run ops.engine;
      ops.recover 4)
    [ (fun _ -> false); (fun _ -> true); (fun d -> d land 1 = 1) ];
  (* Node 3's handler crashes node 6 halfway through the walk. *)
  ops.set_settled (fun _ _ -> false);
  ops.send_group ~srcs:[ (0, 8) ] ~dsts:[ 3; 6 ] 7;
  Engine.run ops.engine;
  {
    log = List.rev !log;
    counts = ops.counters ();
    reasons =
      List.map
        (fun k -> (k, Metrics.counter ops.metrics k))
        [ "net.drop.crash"; "net.drop.partition"; "net.drop.loss"; "net.drop.no_handler";
          "net.deliver.post_heal" ];
    labels = List.map (fun p -> (p.Engine.label, p.Engine.events)) (Engine.profile ops.engine);
    next_latency = ops.sample_latency ();
  }

let test_network_fault_per_batch () =
  let config = Network.datacenter_config ~seed:4 in
  let got = run_fault_script (real_ops ~traced:false config) in
  let want = run_fault_script (ref_ops ~traced:false ~honour_settled:true config) in
  check_same_run (fun w -> "fault per batch: " ^ w) ~log:(fun o -> show_log o.log) want got;
  (* Per settled mode: 3 + 1 cells to or from node 9 cut at admission,
     3 + 2 to or from node 8's partition, and 3 cells to node 4 once it
     crashed in flight; then the cell to node 6, crashed by the handler
     of the cell before it. *)
  Alcotest.(check (list (pair string int)))
    "drops by reason"
    [ ("net.drop.crash", (3 * (4 + 3)) + 1); ("net.drop.partition", 3 * (3 + 2)) ]
    (List.filteri (fun i _ -> i < 2) got.reasons);
  let _, delivered, _, _ = got.counts in
  Alcotest.(check int) "every other cell delivered" ((3 * (12 + 3 + 2 + 1 + 6)) + 1) delivered;
  Alcotest.(check int) "all of them after a recover" delivered
    (List.assoc "net.deliver.post_heal" got.reasons)

(* The post-heal count goes through a counter handle; a [Metrics.clear]
   in mid-run (as an experiment's measurement window does) must not
   leave it counting into a dropped cell, on either arrival path. *)
let test_network_post_heal_after_clear () =
  let e = Engine.create () in
  let net : int Network.t = Network.create e (Network.datacenter_config ~seed:5) in
  let m = Network.metrics net in
  for i = 0 to 5 do
    Network.register net i (fun ~src:_ _ -> ())
  done;
  let srcs = [| (0, 8); (1, 8) |] and dsts = [| 2; 3; 4 |] in
  Network.set_settled net (fun _ m -> m = 1);
  let round () =
    Network.send_group net ~srcs ~dsts 0;
    Network.send_group net ~srcs ~dsts 1;
    Network.send net ~src:0 ~dst:5 0;
    Engine.run e
  in
  let post_heal () = Metrics.counter m "net.deliver.post_heal" in
  round ();
  Alcotest.(check bool) "no counter before a recover" false
    (List.mem "net.deliver.post_heal" (Metrics.counter_names m));
  Network.recover net 5;
  round ();
  Alcotest.(check int) "counted after a recover" 13 (post_heal ());
  Metrics.clear m;
  Alcotest.(check int) "cleared" 0 (post_heal ());
  round ();
  Alcotest.(check int) "counted again after clear" 13 (post_heal ());
  Network.crash net 5;
  round ();
  Alcotest.(check int) "an unrelated crash changes nothing" 25 (post_heal ());
  Alcotest.(check int) "the crashed node's cell dropped" 1 (Metrics.counter m "net.drop.crash")

(* The tight admission loop (an uncut, untraced batch) against the
   per-cell path.  Every grid shape and loss probability is admitted
   by the batched network untraced, by the same network traced (which
   admits cell by cell) and by the per-pair reference: the survival
   mask (read as the cells that reach their handlers, in order), the
   traffic counters, the loss count and the RNG's next draw must all
   agree; the reference draws with [Rng.bernoulli].  0.375 * 2^53 is an integer, so the int threshold's ceiling
   is a no-op there.  A crashed receiver cuts its cells, so its batch
   must still take the per-cell path: its cells are crash drops, never
   loss drops, which the reference checks; a traced batch must still
   trace every cell.  With every column settled, an uncut batch is
   counted from its survivor count: its counters must equal the
   reference's, which counts cell by cell, under every loss rate. *)
let test_network_tight_admission () =
  let shapes = [ (1, 0); (0, 4); (1, 1); (1, 7); (2, 4); (3, 3); (7, 10) ] in
  let run ?(settle_all = false) ~traced ~crashed p (ns, nd) mk =
    let config = { (Network.datacenter_config ~seed:29) with Network.drop_probability = p } in
    let ops, sends = mk ~traced config in
    if settle_all then ops.set_settled (fun _ _ -> true);
    let log = ref [] in
    for i = 0 to 19 do
      ops.register i (fun ~src m -> log := Printf.sprintf "%d->%d #%d" src i m :: !log)
    done;
    Option.iter ops.crash crashed;
    let srcs = List.init ns (fun i -> (i, 8 + (3 * i))) and dsts = List.init nd (fun j -> 10 + j) in
    for round = 1 to 6 do
      ops.send_group ~srcs ~dsts round
    done;
    Engine.run ops.engine;
    let sent, delivered, dropped, bytes = ops.counters () in
    ( List.rev !log,
      [ sent; delivered; dropped; bytes ],
      List.map
        (fun k -> (k, Metrics.counter ops.metrics k))
        [ "net.drop.loss"; "net.drop.crash" ],
      ops.sample_latency (),
      sends () )
  in
  let real ~traced config =
    let trace = Trace.create ~enabled:traced () in
    ( real_ops ~trace ~traced config,
      fun () ->
        List.length
          (List.filter (fun (e : Trace.event) -> String.equal e.Trace.kind "net.send") (Trace.events trace)) )
  in
  let reference ~traced config = (ref_ops ~traced ~honour_settled:true config, fun () -> 0) in
  List.iter
    (fun crashed ->
      List.iter
        (fun p ->
          List.iter
            (fun ((ns, nd) as shape) ->
              let ctx what =
                Printf.sprintf "p=%g %dx%d%s: %s" p ns nd
                  (if Option.is_some crashed then " crashed receiver" else "")
                  what
              in
              let log, counts, reasons, next, _ = run ~traced:false ~crashed p shape real in
              let tlog, tcounts, treasons, tnext, traced_sends = run ~traced:true ~crashed p shape real in
              let rlog, rcounts, rreasons, rnext, _ = run ~traced:false ~crashed p shape reference in
              List.iter
                (fun (who, l, c, r, n) ->
                  Alcotest.(check (list string)) (ctx (who ^ ": survivors")) l log;
                  Alcotest.(check (list int)) (ctx (who ^ ": sent/delivered/dropped/bytes")) c counts;
                  Alcotest.(check (list (pair string int))) (ctx (who ^ ": drops")) r reasons;
                  Alcotest.(check (float 0.0)) (ctx (who ^ ": next draw")) n next)
                [ ("traced", tlog, tcounts, treasons, tnext); ("reference", rlog, rcounts, rreasons, rnext) ];
              Alcotest.(check int) (ctx "every cell traced") (6 * ns * nd) traced_sends;
              let slog, scounts, sreasons, snext, _ =
                run ~settle_all:true ~traced:false ~crashed p shape real
              in
              let rlog, rcounts, rreasons, rnext, _ =
                run ~settle_all:true ~traced:false ~crashed p shape reference
              in
              Alcotest.(check (list string)) (ctx "all settled: no handler runs") [] slog;
              Alcotest.(check (list string)) (ctx "all settled: reference runs none") [] rlog;
              Alcotest.(check (list int)) (ctx "all settled: sent/delivered/dropped/bytes") rcounts
                scounts;
              Alcotest.(check (list (pair string int))) (ctx "all settled: drops") rreasons sreasons;
              Alcotest.(check (float 0.0)) (ctx "all settled: next draw") rnext snext)
            shapes)
        [ 0.0; 0.001; 0.5; 1.0; 0.375 ])
    [ None; Some 12 ]

(* Transit must stay allocation-free per message: a whole
   [send_group] round to a no-op handler, tracing off, may only pay
   per-batch costs (mask, closure, settled-column mask) amortised over
   its cells, with or without settled columns. *)
let test_network_send_group_alloc () =
  List.iter
    (fun (name, settled) ->
      let e = Engine.create () in
      let net : int Network.t = Network.create e (Network.datacenter_config ~seed:3) in
      Option.iter (fun f -> Network.set_settled net (fun d _ -> f d)) settled;
      let calls = ref 0 in
      for i = 0 to 15 do
        Network.register net i (fun ~src:_ _ -> incr calls)
      done;
      let srcs = Array.init 8 (fun i -> (i, 64)) and dsts = Array.init 16 Fun.id in
      let rounds = 200 in
      let round () =
        for _ = 1 to rounds do
          Network.send_group net ~srcs ~dsts 0
        done;
        Engine.run e
      in
      (* Warm-up grows the engine's queue and event pool to size. *)
      round ();
      let a = minor_words_of round in
      let b = minor_words_of round in
      Alcotest.(check (float 0.0)) (name ^ ": stable measurement") a b;
      let per_msg = a /. float_of_int (rounds * 8 * 16) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per message <= 4" name per_msg)
        true (per_msg <= 4.0);
      let cells = 3 * rounds * 8 * 16 in
      Alcotest.(check int) (name ^ ": all delivered") cells (Network.messages_delivered net);
      let settled_columns =
        match settled with None -> 0 | Some f -> List.length (List.filter f (Array.to_list dsts))
      in
      let expected_calls = cells / 16 * (16 - settled_columns) in
      Alcotest.(check int) (name ^ ": handler calls") expected_calls !calls)
    [ ("no settled columns", None); ("odd columns settled", Some (fun d -> d land 1 = 1));
      ("all columns settled", Some (fun _ -> true)) ]

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_rounds_ticks () =
  let e = Engine.create () in
  let r = Rounds.create e ~round_duration:1.5 in
  let seen = ref [] in
  ignore (Rounds.subscribe r (fun round -> seen := round :: !seen));
  Rounds.start r;
  Engine.run ~until:6.5 e;
  Rounds.stop r;
  Alcotest.(check (list int)) "rounds 1..4" [ 1; 2; 3; 4 ] (List.rev !seen)

let test_rounds_subscriber_order () =
  let e = Engine.create () in
  let r = Rounds.create e ~round_duration:1.0 in
  let log = ref [] in
  ignore (Rounds.subscribe r (fun _ -> log := "a" :: !log));
  ignore (Rounds.subscribe r (fun _ -> log := "b" :: !log));
  Rounds.start r;
  Engine.run ~until:1.0 e;
  Rounds.stop r;
  Alcotest.(check (list string)) "subscription order" [ "a"; "b" ] (List.rev !log)

let test_rounds_unsubscribe () =
  let e = Engine.create () in
  let r = Rounds.create e ~round_duration:1.0 in
  let count = ref 0 in
  let id = Rounds.subscribe r (fun _ -> incr count) in
  Rounds.start r;
  Engine.run ~until:2.0 e;
  Rounds.unsubscribe r id;
  Engine.run ~until:5.0 e;
  Rounds.stop r;
  Alcotest.(check int) "stopped after unsubscribe" 2 !count

let test_rounds_stop () =
  let e = Engine.create () in
  let r = Rounds.create e ~round_duration:1.0 in
  let count = ref 0 in
  ignore (Rounds.subscribe r (fun _ -> incr count));
  Rounds.start r;
  Engine.run ~until:3.0 e;
  Rounds.stop r;
  Engine.run e;
  Alcotest.(check int) "no ticks after stop" 3 !count

(* ------------------------------------------------------------------ *)
(* Bulk transfer model                                                 *)
(* ------------------------------------------------------------------ *)

let test_bulk_latency_per_mb_decreases () =
  let h = Bulk.ec2_micro in
  let per_mb mb = Bulk.single_stream_time ~src:h ~dst:h ~mb /. mb in
  Alcotest.(check bool) "2MB slower per MB than 64MB" true (per_mb 2.0 > per_mb 64.0);
  Alcotest.(check bool) "64MB slower per MB than 2048MB" true (per_mb 64.0 > per_mb 2048.0)

let test_bulk_parallel_beats_single_for_big_files () =
  let h = Bulk.ec2_micro in
  let single = Bulk.single_stream_time ~src:h ~dst:h ~mb:1024.0 in
  let parallel = Bulk.parallel_pull_time ~sources:[ h; h ] ~dst:h ~mb:1024.0 ~chunks:10 in
  Alcotest.(check bool) "parallel faster" true (parallel < single);
  Alcotest.(check bool) "roughly 2x" true (single /. parallel > 1.5)

let test_bulk_download_caps_aggregate () =
  let h = Bulk.ec2_micro in
  let five = Bulk.parallel_pull_time ~sources:[ h; h; h; h; h ] ~dst:h ~mb:1024.0 ~chunks:10 in
  let three = Bulk.parallel_pull_time ~sources:[ h; h; h ] ~dst:h ~mb:1024.0 ~chunks:10 in
  (* 3 x 8 MB/s allready saturates the 20 MB/s download link. *)
  Alcotest.(check bool) "no benefit beyond download cap" true (five >= three -. 0.2)

let test_bulk_hash_parallelism () =
  let h = Bulk.ec2_micro in
  let serial = Bulk.hash_time h ~mb:100.0 ~parallel_chunks:1 in
  let parallel = Bulk.hash_time h ~mb:100.0 ~parallel_chunks:10 in
  Alcotest.(check bool) "bounded by cores" true
    (abs_float (serial /. parallel -. float_of_int h.Bulk.cores) < 0.01)

let test_bulk_no_sources_raises () =
  Alcotest.check_raises "no sources"
    (Invalid_argument "Bulk.parallel_pull_time: no sources") (fun () ->
      ignore (Bulk.parallel_pull_time ~sources:[] ~dst:Bulk.ec2_micro ~mb:1.0 ~chunks:1))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Alcotest.(check int) "a" 5 (Metrics.counter m "a");
  Alcotest.(check int) "unknown" 0 (Metrics.counter m "b")

let test_metrics_series () =
  let m = Metrics.create () in
  Metrics.observe m "lat" 1.0;
  Metrics.observe m "lat" 2.0;
  Alcotest.(check (list (float 0.0))) "ordered" [ 1.0; 2.0 ] (Metrics.samples m "lat");
  Alcotest.(check (list string)) "names" [ "lat" ] (Metrics.series_names m)

let test_metrics_clear () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.observe m "s" 1.0;
  Metrics.clear m;
  Alcotest.(check int) "counter gone" 0 (Metrics.counter m "a");
  Alcotest.(check (list (float 0.0))) "series gone" [] (Metrics.samples m "s")

let test_metrics_handle () =
  let m = Metrics.create () in
  let h = Metrics.handle m "h" in
  Alcotest.(check (list string)) "a handle creates no counter" [] (Metrics.counter_names m);
  Metrics.bump h;
  Metrics.incr m "h";
  Metrics.bump ~by:3 h;
  Alcotest.(check int) "handle and name share the counter" 5 (Metrics.counter m "h");
  Metrics.clear m;
  Metrics.bump h;
  Alcotest.(check int) "after clear" 1 (Metrics.counter m "h");
  Metrics.incr m "h";
  Alcotest.(check int) "one cell again" 2 (Metrics.counter m "h")

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:2 a "x";
  Metrics.observe a "lat" 1.0;
  Metrics.incr ~by:3 b "x";
  Metrics.incr b "y";
  Metrics.observe b "lat" 2.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters added" 5 (Metrics.counter a "x");
  Alcotest.(check int) "new counter" 1 (Metrics.counter a "y");
  Alcotest.(check (list (float 0.0))) "samples appended" [ 1.0; 2.0 ] (Metrics.samples a "lat");
  Alcotest.(check int) "source untouched" 3 (Metrics.counter b "x")

(* Through bytes and back, as a consumer of the artifact reads it. *)
let metrics_roundtrip m =
  let s = Atum_util.Json.to_string (A.encode A.metrics (A.metrics_of ~include_series:true m)) in
  match Result.bind (Atum_util.Json.of_string s) (A.decode A.metrics) with
  | Error e -> Alcotest.failf "metrics round trip failed: %s" e
  | Ok r -> r

let samples_of (r : A.metrics) name =
  match List.assoc_opt name r.series with Some s -> s.samples | None -> None

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 m "net.drop.loss";
  Metrics.incr m "join.completed";
  List.iter (Metrics.observe m "join.latency") [ 0.5; 1.25; 3.0 ];
  let r = metrics_roundtrip m in
  Alcotest.(check (list (pair string int))) "counters"
    (Metrics.snapshot m).Metrics.snap_counters r.counters;
  Alcotest.(check (option (list (float 1e-12)))) "samples" (Some [ 0.5; 1.25; 3.0 ])
    (samples_of r "join.latency")

let test_metrics_json_summary_only () =
  let m = Metrics.create () in
  Metrics.observe m "lat" 4.0;
  let j = A.encode A.metrics (A.metrics_of m) in
  (* Without include_series the summary is exported but not samples. *)
  match Atum_util.Json.member "series" j with
  | Some (Atum_util.Json.Obj [ ("lat", summary) ]) ->
      Alcotest.(check bool) "has n" true (Atum_util.Json.member "n" summary <> None);
      Alcotest.(check bool) "no samples" true
        (Atum_util.Json.member "samples" summary = None)
  | _ -> Alcotest.fail "unexpected series shape"

let test_metrics_merge_of_json_roundtrip () =
  (* The bench fig8 path: each run's metrics are merged into one
     aggregate, which the artifact then exports and a reader restores. *)
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.incr m1 "a";
  Metrics.incr ~by:2 m1 "b";
  List.iter (Metrics.observe m1 "lat") [ 1.0; 2.0 ];
  Metrics.incr ~by:3 m2 "b";
  Metrics.incr ~by:4 m2 "c";
  Metrics.observe m2 "lat" 3.0;
  Metrics.observe m2 "size" 9.0;
  let agg = Metrics.create () in
  Metrics.merge ~into:agg m1;
  Metrics.merge ~into:agg m2;
  let r = metrics_roundtrip agg in
  Alcotest.(check (list (pair string int))) "counters summed across runs"
    [ ("a", 1); ("b", 5); ("c", 4) ] r.counters;
  Alcotest.(check (option (list (float 1e-12)))) "series appended in merge order"
    (Some [ 1.0; 2.0; 3.0 ]) (samples_of r "lat");
  Alcotest.(check (option (list (float 1e-12)))) "series unique to one run" (Some [ 9.0 ])
    (samples_of r "size")

let test_metrics_of_json_error_paths () =
  (* Artifacts come from disk: malformed input must come back as
     [Error _] naming the offending field, never an exception. *)
  let open Atum_util.Json in
  let expect_error label ~path json =
    match A.decode A.metrics json with
    | Error e ->
      Alcotest.(check bool) (label ^ ": error names " ^ path) true
        (String.starts_with ~prefix:path e)
    | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" label
  in
  expect_error "non-object document" ~path:"expected an object" (List [ Int 1 ]);
  expect_error "string document" ~path:"expected an object" (String "metrics");
  expect_error "counters not an object" ~path:"counters:" (Obj [ ("counters", Int 3) ]);
  expect_error "counter not an integer" ~path:"counters.x:"
    (Obj [ ("counters", Obj [ ("x", String "seven") ]) ]);
  let series s = Obj [ ("series", Obj [ ("lat", Obj (("n", Int 1) :: s)) ]) ] in
  expect_error "samples not a list" ~path:"series.lat.samples:" (series [ ("samples", Int 1) ]);
  expect_error "sample not a number" ~path:"series.lat.samples[0]:"
    (series [ ("samples", List [ Bool true ]) ]);
  (* Absent sections are fine: an empty object is an empty snapshot. *)
  match A.decode A.metrics (Obj []) with
  | Ok r -> Alcotest.(check (list (pair string int))) "empty snapshot" [] r.counters
  | Error e -> Alcotest.failf "empty object should parse: %s" e

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_samples_gauges () =
  let e = Engine.create () in
  let tel = Telemetry.create ~period:1.0 ~capacity:16 e in
  let x = ref 0.0 in
  let counter = ref 0 in
  Telemetry.register tel "x" (fun () -> !x);
  Telemetry.register_delta tel "c.delta" (fun () -> !counter);
  Telemetry.start tel;
  (* State evolves between samples; deltas must report per-period
     increases, with the first sample baselined at zero. *)
  Engine.schedule e ~delay:0.5 (fun () ->
      x := 10.0;
      counter := 3);
  Engine.schedule e ~delay:2.5 (fun () -> counter := 5);
  Engine.run ~until:3.5 e;
  Alcotest.(check (list (float 1e-9))) "shared time axis" [ 1.0; 2.0; 3.0 ]
    (Telemetry.times tel);
  Alcotest.(check (list string)) "names sorted" [ "c.delta"; "x" ]
    (Telemetry.gauge_names tel);
  Alcotest.(check (list (float 1e-9))) "plain gauge" [ 10.0; 10.0; 10.0 ]
    (Telemetry.series tel "x");
  Alcotest.(check (list (float 1e-9))) "delta gauge" [ 3.0; 0.0; 2.0 ]
    (Telemetry.series tel "c.delta");
  Alcotest.(check (list (float 1e-9))) "unknown gauge" [] (Telemetry.series tel "nope")

let test_telemetry_ring_wraparound () =
  let e = Engine.create () in
  let tel = Telemetry.create ~period:1.0 ~capacity:4 e in
  Telemetry.register tel "t" (fun () -> Engine.now e);
  Telemetry.start tel;
  Engine.run ~until:10.5 e;
  Alcotest.(check int) "all samples counted" 10 (Telemetry.samples_total tel);
  Alcotest.(check int) "ring keeps the newest" 4 (Telemetry.samples_kept tel);
  Alcotest.(check (list (float 1e-9))) "oldest-first after wrap" [ 7.0; 8.0; 9.0; 10.0 ]
    (Telemetry.times tel);
  Alcotest.(check (list (float 1e-9))) "series aligned" [ 7.0; 8.0; 9.0; 10.0 ]
    (Telemetry.series tel "t")

let test_telemetry_stop_and_late_register () =
  let e = Engine.create () in
  let tel = Telemetry.create ~period:1.0 e in
  Telemetry.register tel "x" (fun () -> 1.0);
  Telemetry.start tel;
  Engine.run ~until:1.5 e;
  (* Late registration is allowed: the new gauge's missed samples are
     backfilled with zeros so it stays aligned with the time axis. *)
  Telemetry.register tel "late" (fun () -> 9.0);
  Alcotest.check_raises "duplicate late gauge"
    (Invalid_argument "Telemetry.register: duplicate gauge \"x\"") (fun () ->
      Telemetry.register tel "x" (fun () -> 0.0));
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "late gauge zero-backfilled" [ 0.0; 9.0 ]
    (Telemetry.series tel "late");
  Telemetry.stop tel;
  Engine.run ~until:9.5 e;
  Alcotest.(check int) "no samples after stop" 2 (Telemetry.samples_total tel)

let test_telemetry_json_roundtrip () =
  let e = Engine.create () in
  let tel = Telemetry.create ~period:2.0 ~capacity:8 e in
  let n = ref 0 in
  Telemetry.register tel "n" (fun () -> float_of_int !n);
  Telemetry.register tel "half" (fun () -> float_of_int !n /. 2.0);
  Telemetry.start tel;
  Engine.every e ~period:1.0 (fun () ->
      incr n;
      true);
  Engine.run ~until:8.5 e;
  let j = A.encode A.telemetry (A.telemetry_of tel) in
  (* Through bytes and back, as [atum-cli report] reads it. *)
  match Result.bind (Atum_util.Json.of_string (Atum_util.Json.to_string j)) (A.decode A.telemetry) with
  | Error err -> Alcotest.failf "round trip failed: %s" err
  | Ok r ->
    Alcotest.(check (float 1e-9)) "period" 2.0 r.period_s;
    Alcotest.(check (list (float 1e-9))) "times" (Telemetry.times tel) r.times;
    Alcotest.(check int) "samples_total" (Telemetry.samples_total tel) r.samples_total;
    Alcotest.(check (list string)) "gauge names" [ "half"; "n" ] (List.map fst r.gauges);
    List.iter
      (fun (name, xs) -> Alcotest.(check (list (float 1e-9))) name (Telemetry.series tel name) xs)
      r.gauges

let test_telemetry_of_json_error_paths () =
  let open Atum_util.Json in
  let expect_error label ~path result =
    match result with
    | Error e ->
      Alcotest.(check bool) (label ^ ": error names " ^ path) true
        (String.starts_with ~prefix:path e)
    | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" label
  in
  let tel ?(times = [ Float 1.0 ]) gauges =
    Obj
      [
        ("period_s", Float 1.0);
        ("capacity", Int 8);
        ("samples_total", Int (List.length times));
        ("samples_kept", Int (List.length times));
        ("times", List times);
        ("gauges", Obj gauges);
      ]
  in
  let decode = A.decode A.telemetry in
  expect_error "non-object" ~path:"expected an object" (decode (List []));
  expect_error "missing fields" ~path:"period_s: missing" (decode (Obj []));
  expect_error "gauge series length mismatch" ~path:"gauges.x:"
    (decode (tel ~times:[ Float 1.0; Float 2.0 ] [ ("x", List [ Float 0.0 ]) ]));
  expect_error "non-numeric sample" ~path:"gauges.x[0]:"
    (decode (tel [ ("x", List [ String "one" ]) ]));
  (* The one artifact version: a timeseries artifact of any other
     schema_version is rejected, whatever its body. *)
  let artifact v =
    Obj
      [
        ("schema_version", Int v);
        ("cmd", String "churn");
        ("seed", Int 1);
        ( "build_info",
          Obj
            [
              ("version", String "x"); ("git", String "x"); ("seed", Int 1); ("cmdline", String "x");
            ] );
        ("timeseries", tel [ ("x", List [ Float 0.0 ]) ]);
        ("profile", Obj [ ("labels", List []) ]);
      ]
  in
  (match A.of_json (artifact A.schema_version) with
  | Ok (A.Timeseries _) -> ()
  | Ok _ -> Alcotest.fail "decoded as the wrong artifact kind"
  | Error e -> Alcotest.failf "current version should decode: %s" e);
  expect_error "unsupported version is rejected" ~path:"schema_version:"
    (A.of_json (artifact (A.schema_version + 1)))

let test_telemetry_csv () =
  let e = Engine.create () in
  let tel = Telemetry.create ~period:1.0 e in
  Telemetry.register tel "b" (fun () -> 2.0);
  Telemetry.register tel "a" (fun () -> 1.0);
  Telemetry.start tel;
  Engine.run ~until:2.5 e;
  let lines = String.split_on_char '\n' (String.trim (Telemetry.to_csv tel)) in
  match lines with
  | header :: rows ->
    Alcotest.(check string) "header sorted by gauge name" "time,a,b" header;
    Alcotest.(check int) "one row per sample" 2 (List.length rows)
  | [] -> Alcotest.fail "empty csv"

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_noop () =
  let t = Trace.create ~capacity:8 () in
  Trace.emit t ~time:1.0 ~kind:"k" ();
  Alcotest.(check int) "nothing recorded" 0 (Trace.total t);
  Trace.set_enabled t true;
  Trace.emit t ~time:2.0 ~kind:"k" ();
  Alcotest.(check int) "recorded once enabled" 1 (Trace.total t)

let test_trace_ring_wraparound () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 10 do
    Trace.emit t ~time:(float_of_int i) ~kind:"tick" ~node:i ()
  done;
  Alcotest.(check int) "total" 10 (Trace.total t);
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let nodes = List.map (fun (ev : Trace.event) -> ev.Trace.node) (Trace.events t) in
  Alcotest.(check (list int)) "oldest-first tail" [ 7; 8; 9; 10 ] nodes;
  (match A.encode A.trace (A.trace_of t) with
  | Atum_util.Json.Obj fields ->
      Alcotest.(check bool) "json dropped" true
        (List.assoc_opt "dropped" fields = Some (Atum_util.Json.Int 6))
  | _ -> Alcotest.fail "trace json not an object");
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_trace_iter_fold_dropped_kinds () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 6 do
    Trace.emit t ~time:(float_of_int i) ~kind:"tick" ~node:i ()
  done;
  for i = 7 to 10 do
    Trace.emit t ~time:(float_of_int i) ~kind:"tock" ~node:i ()
  done;
  (* iter visits oldest-first, in the same order [events] returns. *)
  let seen = ref [] in
  Trace.iter t (fun ev -> seen := ev :: !seen);
  Alcotest.(check bool) "iter matches events" true (List.rev !seen = Trace.events t);
  Alcotest.(check (list int)) "iter oldest-first" [ 7; 8; 9; 10 ]
    (List.rev_map (fun (ev : Trace.event) -> ev.Trace.node) !seen);
  Alcotest.(check int) "fold counts retained" 4
    (Trace.fold t ~init:0 ~f:(fun acc _ -> acc + 1));
  (* The six overwritten events were all ticks. *)
  Alcotest.(check (list (pair string int))) "dropped by kind" [ ("tick", 6) ]
    (Trace.dropped_by_kind t);
  (match A.encode A.trace (A.trace_of t) with
  | Atum_util.Json.Obj fields ->
      Alcotest.(check bool) "json dropped_by_kind" true
        (List.assoc_opt "dropped_by_kind" fields
        = Some (Atum_util.Json.Obj [ ("tick", Atum_util.Json.Int 6) ]))
  | _ -> Alcotest.fail "trace json not an object");
  Trace.clear t;
  Alcotest.(check (list (pair string int))) "clear resets drop counts" []
    (Trace.dropped_by_kind t)

let test_trace_correlation_fields () =
  let t = Trace.create ~capacity:8 ~enabled:true () in
  Trace.emit t ~time:1.0 ~kind:"bcast.hop" ~node:3 ~bid:7 ~span:2 ~parent:1 ~cycle:0 ();
  Trace.emit t ~time:2.0 ~kind:"plain" ();
  (match Trace.events t with
  | [ hop; plain ] ->
      Alcotest.(check int) "bid" 7 hop.Trace.bid;
      Alcotest.(check int) "span" 2 hop.Trace.span;
      Alcotest.(check int) "parent" 1 hop.Trace.parent;
      Alcotest.(check int) "cycle" 0 hop.Trace.cycle;
      Alcotest.(check int) "bid defaults to -1" (-1) plain.Trace.bid;
      Alcotest.(check int) "span defaults to -1" (-1) plain.Trace.span
  | _ -> Alcotest.fail "expected two events");
  (* JSON form: correlation keys present when set, omitted when unset. *)
  match A.encode A.trace (A.trace_of t) with
  | Atum_util.Json.Obj fields -> (
      match List.assoc_opt "events" fields with
      | Some (Atum_util.Json.List [ hop; plain ]) ->
          let has key j = Atum_util.Json.member key j <> None in
          Alcotest.(check bool) "hop has bid/span/parent/cycle" true
            (has "bid" hop && has "span" hop && has "parent" hop && has "cycle" hop);
          Alcotest.(check bool) "plain omits them" true
            (not (has "bid" plain || has "span" plain || has "parent" plain
                 || has "cycle" plain))
      | _ -> Alcotest.fail "unexpected events shape")
  | _ -> Alcotest.fail "trace json not an object"

let test_trace_engine_emits () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true () in
  Engine.set_trace e t;
  Engine.schedule e ~delay:1.0 (fun () -> ());
  Engine.run e;
  let kinds = List.map (fun (ev : Trace.event) -> ev.Trace.kind) (Trace.events t) in
  Alcotest.(check bool) "engine.run recorded" true (List.mem "engine.run" kinds)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "until past drained queue" `Quick
            test_engine_until_empty_queue_advances_clock;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "max_events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "every: no accumulation drift" `Quick
            test_engine_every_no_drift;
          Alcotest.test_case "every: bad period" `Quick test_engine_every_rejects_bad_period;
          Alcotest.test_case "profile accounting" `Quick test_engine_profile_accounting;
          Alcotest.test_case "profile omits labels that never ran" `Quick
            test_engine_profile_omits_unrun_labels;
          Alcotest.test_case "NaN time rejected" `Quick test_engine_rejects_nan;
          Alcotest.test_case "schedule + step allocate nothing" `Quick test_engine_step_alloc_free;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "latency" `Quick test_network_latency_positive;
          Alcotest.test_case "unregistered" `Quick test_network_unregistered_dropped;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "crash" `Quick test_network_crash_isolates;
          Alcotest.test_case "crashed pair" `Quick test_network_two_crashed_nodes_cannot_talk;
          Alcotest.test_case "loss" `Quick test_network_drop_probability;
          Alcotest.test_case "wan distribution" `Quick test_network_wan_latency_distribution;
          Alcotest.test_case "mid-flight partition" `Quick test_network_mid_flight_partition;
          Alcotest.test_case "fixed latency" `Quick test_network_fixed_latency;
          Alcotest.test_case "node capacity queues" `Quick test_network_node_capacity_queues;
          Alcotest.test_case "capacity idle reset" `Quick test_network_capacity_idle_resets;
          Alcotest.test_case "drops don't charge capacity (pre-send)" `Quick
            test_network_capacity_not_charged_for_presend_drops;
          Alcotest.test_case "drops don't charge capacity (arrival)" `Quick
            test_network_capacity_not_charged_for_arrival_drops;
          Alcotest.test_case "drop reason counters" `Quick test_network_drop_reason_counters;
          Alcotest.test_case "batched transit matches per-pair reference" `Quick
            test_network_matches_reference;
          Alcotest.test_case "fault state per batch" `Quick test_network_fault_per_batch;
          Alcotest.test_case "post-heal count across clear" `Quick
            test_network_post_heal_after_clear;
          Alcotest.test_case "tight admission matches the per-cell path" `Quick
            test_network_tight_admission;
          Alcotest.test_case "send_group allocation per message" `Quick
            test_network_send_group_alloc;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "ticks" `Quick test_rounds_ticks;
          Alcotest.test_case "subscriber order" `Quick test_rounds_subscriber_order;
          Alcotest.test_case "unsubscribe" `Quick test_rounds_unsubscribe;
          Alcotest.test_case "stop" `Quick test_rounds_stop;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "amortized overhead" `Quick test_bulk_latency_per_mb_decreases;
          Alcotest.test_case "parallel pull" `Quick test_bulk_parallel_beats_single_for_big_files;
          Alcotest.test_case "download cap" `Quick test_bulk_download_caps_aggregate;
          Alcotest.test_case "hash parallelism" `Quick test_bulk_hash_parallelism;
          Alcotest.test_case "no sources" `Quick test_bulk_no_sources_raises;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "series" `Quick test_metrics_series;
          Alcotest.test_case "clear" `Quick test_metrics_clear;
          Alcotest.test_case "handle" `Quick test_metrics_handle;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "json roundtrip" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "json summary only" `Quick test_metrics_json_summary_only;
          Alcotest.test_case "merge + of_json roundtrip" `Quick
            test_metrics_merge_of_json_roundtrip;
          Alcotest.test_case "of_json error paths" `Quick test_metrics_of_json_error_paths;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "samples gauges" `Quick test_telemetry_samples_gauges;
          Alcotest.test_case "ring wraparound" `Quick test_telemetry_ring_wraparound;
          Alcotest.test_case "stop + late register" `Quick
            test_telemetry_stop_and_late_register;
          Alcotest.test_case "json roundtrip" `Quick test_telemetry_json_roundtrip;
          Alcotest.test_case "of_json error paths" `Quick
            test_telemetry_of_json_error_paths;
          Alcotest.test_case "csv" `Quick test_telemetry_csv;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled noop" `Quick test_trace_disabled_noop;
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "iter/fold + dropped kinds" `Quick
            test_trace_iter_fold_dropped_kinds;
          Alcotest.test_case "correlation fields" `Quick test_trace_correlation_fields;
          Alcotest.test_case "engine emits" `Quick test_trace_engine_emits;
        ] );
    ]
