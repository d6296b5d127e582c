(* Metric definitions: which numbers a run reports, in which unit, and
   how each is computed from episodes.  METRICS.md explains each one
   and which end-to-end metric it should move on which workload. *)

module W = Workload

type metric = { name : string; unit : string; value : float; n : int }
(** [n]: the sample count behind the value. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("peak_heap_mb", "MiB");
    ("delivery_p50_s", "sim_s");
    ("delivery_p90_s", "sim_s");
    ("msgs_per_op", "msgs/op");
  ]

let engine_labels =
  [ "net.transit.batch"; "system.fanout"; "net.transit"; "rounds.tick"; "smr.timer"; "system.defer"; "telemetry.sample" ]

let sagas = [ "join"; "leave"; "split"; "merge"; "shuffle"; "walk"; "restart" ]

let per_layer =
  [ ("engine.events_per_op", "events/op") ]
  @ List.map (fun l -> ("engine.self_s." ^ l, "s")) engine_labels
  @ [
      ("network.bytes_per_op", "B/op");
      ("network.msgs_per_event", "msgs/event");
      ("network.drop_ratio", "ratio");
      ("gossip.redundancy", "ratio");
      ("gossip.hops_p50", "hops");
      ("gossip.hops_max", "hops");
      ("gossip.view_rebuilds_per_op", "1/op");
    ]
  @ List.concat_map (fun s -> [ ("saga." ^ s ^ ".count", "count"); ("saga." ^ s ^ ".p50_s", "sim_s") ]) sagas
  @ [
      ("saga.join_success", "ratio");
      ("overlay.walks_per_op", "1/op");
      ("overlay.walk_success", "ratio");
      ("smr.rounds_self_s", "s");
      ("smr.timer_events_per_op", "events/op");
      ("store.append.calls_per_op", "1/op");
      ("store.append.bytes_per_op", "B/op");
      ("store.append_s", "s");
      ("store.save.calls", "count");
      ("store.save.bytes", "B");
      ("store.save_s", "s");
      ("store.load_s", "s");
      ("store.replayed", "count");
      ("store.fsyncs_per_op", "1/op");
      ("call.put_s", "s");
      ("call.restart_s", "s");
      ("call.broadcast_s", "s");
      ("call.join_s", "s");
      ("call.leave_s", "s");
      ("call.run_for_s", "s");
      ("gc.alloc_words_per_op", "words/op");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.overhead_ratio", "ratio");
      ("delivery_p99_s", "sim_s");
      ("join_p50_s", "sim_s");
      ("join_p90_s", "sim_s");
      ("recovery_p50_s", "sim_s");
      ("fail_ratio", "failed/attempted");
    ]

let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

let median = function [] -> 0.0 | xs -> Atum_util.Stats.median xs

let make catalogue values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some (value, n) -> { name; unit; value; n }
      | None -> invalid_arg ("Layers: no value for " ^ name))
    catalogue

(* [distinct]: one episode per sub-seed, pooled for the simulation
   metrics; [all]: every timed episode, whose wall-clock numbers are
   summarised by their median. *)
let end_to_end_values ~distinct ~all ~top_heap_words =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 distinct in
  let delivery = Pct.of_list (List.concat_map (fun (e : W.episode) -> e.W.delivery) distinct) in
  let n_all = List.length all in
  make end_to_end
    [
      ("setup_s", (median (List.map (fun (e : W.episode) -> e.W.setup_s) all), n_all));
      ( "ops_per_s",
        (median (List.map (fun (e : W.episode) -> float_of_int e.W.completed /. e.W.measure_s) all), n_all) );
      ("peak_heap_mb", (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1_048_576.0, 1));
      ("delivery_p50_s", (delivery.Pct.p50, delivery.Pct.n));
      ("delivery_p90_s", (delivery.Pct.p90, delivery.Pct.n));
      ("msgs_per_op", (fdiv (sum (fun e -> e.W.msgs)) (sum (fun e -> e.W.ops)), sum (fun e -> e.W.ops)));
    ]

let label_self (e : W.episode) label =
  List.fold_left (fun acc (l, _, s) -> if l = label then acc +. s else acc) 0.0 e.W.profile

let label_events (e : W.episode) label =
  List.fold_left (fun acc (l, ev, _) -> if l = label then acc + ev else acc) 0 e.W.profile

(* [untraced] and [traced] ran the same sub-seed; counts are equal
   between them (the determinism guard checks it), allocation counts
   come from the untraced one and wall-clock shares from the traced
   one. *)
let per_layer_values ~(untraced : W.episode) ~(traced : W.episode) =
  let e = traced in
  let ops = e.W.ops in
  let per_op v = fdiv v ops in
  let sink = Option.get e.W.sink in
  let hops = Pct.of_list (Trace_sink.hops sink) in
  let saga_p50 s =
    let d = Pct.of_list (Trace_sink.saga_durations sink s) in
    (d.Pct.p50, d.Pct.n)
  in
  let calls = Spans.self_times ~under:"measure" e.W.spans in
  let call name = (Option.value (List.assoc_opt ("call." ^ name) calls) ~default:0.0, 1) in
  let timed f =
    match e.W.store with
    | Some { W.timed = Some t; _ } -> f t
    | _ -> (0.0, 0)
  in
  let store f = match e.W.store with Some s -> f s | None -> 0 in
  let transit = label_events e "net.transit" + label_events e "net.transit.batch" in
  let c = W.counter e in
  let delivery = Pct.of_list untraced.W.delivery in
  let join = Pct.of_list untraced.W.join and recovery = Pct.of_list untraced.W.recovery in
  let one v = (v, 1) in
  make per_layer
    ([ ("engine.events_per_op", (per_op e.W.events, ops)) ]
    @ List.map (fun l -> ("engine.self_s." ^ l, one (label_self e l))) engine_labels
    @ [
        ("network.bytes_per_op", (per_op e.W.bytes, ops));
        ("network.msgs_per_event", (fdiv e.W.msgs transit, transit));
        ("network.drop_ratio", (fdiv e.W.drops e.W.msgs, e.W.msgs));
        ( "gossip.redundancy",
          let deliveries = Trace_sink.count sink "broadcast.delivered" in
          (fdiv (Trace_sink.count sink "bcast.dup") deliveries, deliveries) );
        ("gossip.hops_p50", (hops.Pct.p50, hops.Pct.n));
        ("gossip.hops_max", (hops.Pct.max, hops.Pct.n));
        ("gossip.view_rebuilds_per_op", (per_op (c "gossip.view.rebuilt"), ops));
      ]
    @ List.concat_map
        (fun s ->
          let n = Trace_sink.count sink ("saga." ^ s ^ ".begin") in
          [ ("saga." ^ s ^ ".count", (float_of_int n, n)); ("saga." ^ s ^ ".p50_s", saga_p50 s) ])
        sagas
    @ [
        ("saga.join_success", (fdiv (c "join.completed") (c "join.requested"), c "join.requested"));
        ("overlay.walks_per_op", (per_op (c "walk.started"), ops));
        ("overlay.walk_success", (fdiv (c "walk.completed") (c "walk.started"), c "walk.started"));
        ("smr.rounds_self_s", one (label_self e "rounds.tick" +. label_self e "smr.timer"));
        ("smr.timer_events_per_op", (per_op (label_events e "smr.timer"), ops));
        ("store.append.calls_per_op", timed (fun t -> (per_op t.Timed_backend.append.calls, ops)));
        ("store.append.bytes_per_op", timed (fun t -> (per_op t.Timed_backend.append.bytes, ops)));
        ("store.append_s", timed (fun t -> one t.Timed_backend.append.secs));
        ("store.save.calls", timed (fun t -> (float_of_int t.Timed_backend.save.calls, 1)));
        ("store.save.bytes", timed (fun t -> (float_of_int t.Timed_backend.save.bytes, 1)));
        ("store.save_s", timed (fun t -> one t.Timed_backend.save.secs));
        ("store.load_s", timed (fun t -> one t.Timed_backend.load.secs));
        ("store.replayed", one (float_of_int (store (fun s -> s.W.replayed))));
        ("store.fsyncs_per_op", (per_op (store (fun s -> s.W.fsyncs)), ops));
        ("call.put_s", call "put");
        ("call.restart_s", call "restart");
        ("call.broadcast_s", call "broadcast");
        ("call.join_s", call "join");
        ("call.leave_s", call "leave");
        ("call.run_for_s", call "run_for");
        ("gc.alloc_words_per_op", (div untraced.W.alloc_words (float_of_int ops), ops));
        ("gc.minor_collections", one (float_of_int untraced.W.minor_gcs));
        ("gc.major_collections", one (float_of_int untraced.W.major_gcs));
        ("trace.overhead_ratio", one (div traced.W.measure_s untraced.W.measure_s));
        ("delivery_p99_s", (delivery.Pct.p99, delivery.Pct.n));
        ("join_p50_s", (join.Pct.p50, join.Pct.n));
        ("join_p90_s", (join.Pct.p90, join.Pct.n));
        ("recovery_p50_s", (recovery.Pct.p50, recovery.Pct.n));
        ("fail_ratio", (Tally.ratio untraced.W.tally, Tally.attempted untraced.W.tally));
      ])
