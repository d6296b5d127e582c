(* The benchmark's own helpers, a toy-size smoke run of every workload
   (its correctness checks and determinism guard), and agreement
   between BENCHMARK.json and the metrics the code reports. *)

open Perfbench
module W = Workload
module Json = Atum_util.Json

let close = Alcotest.float 1e-9

(* --- percentiles ------------------------------------------------------ *)

let test_pct () =
  let p = Pct.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check int) "n" 100 p.Pct.n;
  Alcotest.check close "p50" 50.5 p.Pct.p50;
  Alcotest.check close "max" 100.0 p.Pct.max;
  Alcotest.(check bool) "p90 has ten samples beyond" true (Pct.supports p ~p:90.0);
  Alcotest.(check bool) "p99 does not" false (Pct.supports p ~p:99.0);
  let e = Pct.of_list [] in
  Alcotest.(check int) "empty n" 0 e.Pct.n;
  Alcotest.check close "empty p99" 0.0 e.Pct.p99

(* --- fail_ratio accounting -------------------------------------------- *)

let test_tally () =
  let t = Tally.create () in
  Alcotest.check close "nothing attempted" 0.0 (Tally.ratio t);
  Tally.add t "a" ~attempted:10 ~failed:1;
  Tally.add t "b" ~attempted:30 ~failed:3;
  Alcotest.(check int) "attempted" 40 (Tally.attempted t);
  Alcotest.(check int) "failed" 4 (Tally.failed t);
  Alcotest.check close "ratio" 0.1 (Tally.ratio t);
  Alcotest.(check (list string)) "rows in order" [ "a"; "b" ] (List.map (fun (w, _, _) -> w) (Tally.rows t));
  let u = Tally.create () in
  Tally.add u "b" ~attempted:5 ~failed:5;
  let s = Tally.sum [ t; u ] in
  Alcotest.(check (list (triple string int int))) "sum by check" [ ("a", 10, 1); ("b", 35, 8) ] (Tally.rows s);
  Alcotest.check close "summed ratio" 0.2 (Tally.ratio s);
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Tally.add c: 2 failed of 1 attempted") (fun () ->
      Tally.add t "c" ~attempted:1 ~failed:2)

(* --- span recorder ------------------------------------------------------ *)

let ticking () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. 1.0;
    !now

let test_spans () =
  let sp = Spans.create ~clock:(ticking ()) ~enabled:true () in
  Spans.with_span sp "measure" (fun () ->
      Spans.with_span sp ~op:7 "op" (fun () -> Spans.with_span sp "call.broadcast" ignore));
  (try Spans.with_span sp "call.boom" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Spans.spans sp in
  Alcotest.(check (list string)) "opening order" [ "measure"; "op"; "call.broadcast"; "call.boom" ]
    (List.map (fun s -> s.Spans.name) spans);
  let by name = List.find (fun s -> s.Spans.name = name) spans in
  Alcotest.(check int) "parent" (by "op").Spans.id (by "call.broadcast").Spans.parent;
  Alcotest.(check int) "op inherited" 7 (by "call.broadcast").Spans.op;
  Alcotest.(check int) "root op" (-1) (by "measure").Spans.op;
  (* clock ticks: measure 1..6, op 2..5, broadcast 3..4 *)
  Alcotest.check close "duration" 5.0 ((by "measure").Spans.stop -. (by "measure").Spans.start);
  let self = Spans.self_times sp in
  Alcotest.check close "self measure" 2.0 (List.assoc "measure" self);
  Alcotest.check close "self op" 2.0 (List.assoc "op" self);
  Alcotest.check close "self leaf" 1.0 (List.assoc "call.broadcast" self);
  Alcotest.(check (list string)) "under" [ "call.broadcast"; "op" ]
    (List.map fst (Spans.self_times ~under:"measure" sp));
  (match Json.member "traceEvents" (Spans.to_trace_event sp) with
  | Some (Json.List evs) ->
    Alcotest.(check int) "one event per span" 4 (List.length evs);
    List.iter
      (fun ev -> Alcotest.(check bool) "complete event" true (Json.member "ph" ev = Some (Json.String "X")))
      evs
  | _ -> Alcotest.fail "no traceEvents");
  let off = Spans.create ~enabled:false () in
  Alcotest.(check int) "disabled runs f" 3 (Spans.with_span off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

(* --- timed store backend -------------------------------------------------- *)

let test_timed_backend () =
  let vfs = Atum_store.Vfs.create () in
  let t, b = Timed_backend.wrap ~clock:(ticking ()) (Atum_store.Vfs.backend vfs) in
  b.Atum_store.Backend.append ~node:1 ~name:"wal" "abc";
  b.Atum_store.Backend.append ~node:1 ~name:"wal" "de";
  b.Atum_store.Backend.save ~node:1 ~name:"snap" "xyz1";
  Alcotest.(check (option string)) "load passes through" (Some "abcde") (b.Atum_store.Backend.load ~node:1 ~name:"wal");
  b.Atum_store.Backend.remove ~node:1 ~name:"wal";
  Alcotest.(check (option string)) "remove passes through" None (Atum_store.Vfs.read vfs ~node:1 ~name:"wal");
  let open Timed_backend in
  Alcotest.(check (list int)) "calls" [ 1; 1; 2; 1 ] [ t.load.calls; t.save.calls; t.append.calls; t.remove.calls ];
  Alcotest.(check (list int)) "bytes" [ 5; 4; 5 ] [ t.load.bytes; t.save.bytes; t.append.bytes ];
  Alcotest.check close "one tick per call" 2.0 t.append.secs;
  let frozen = copy t in
  reset t;
  Alcotest.(check int) "reset" 0 t.append.calls;
  Alcotest.(check int) "copy kept" 2 frozen.append.calls

(* --- toy-size smoke runs ------------------------------------------------------ *)

let smoke kind () =
  let size = W.toy kind in
  let a = W.run kind size ~seed:5 and b = W.run kind size ~seed:5 in
  let fp = Alcotest.(list (pair string string)) in
  Alcotest.check fp "same seed, same simulation" (W.fingerprint `Full a) (W.fingerprint `Full b);
  let traced = W.run ~traced:true kind size ~seed:5 in
  Alcotest.check fp "tracing does not perturb" (W.fingerprint `Traced a) (W.fingerprint `Traced traced);
  Alcotest.(check bool) "registry consistent" true (a.W.consistency = Ok ());
  Alcotest.(check bool) "checks attempted" true (Tally.attempted a.W.tally > 0);
  Alcotest.(check int) "every op scheduled" size.W.ops a.W.ops;
  Alcotest.(check bool) "spans recorded only when traced" true
    (Spans.spans a.W.spans = [] && Spans.spans traced.W.spans <> []);
  let other = W.run kind size ~seed:6 in
  Alcotest.(check bool) "another seed, another simulation" true
    (W.fingerprint `Full a <> W.fingerprint `Full other);
  let e2e = Layers.end_to_end_values ~distinct:[ a; other ] ~all:[ a; b; other ] ~top_heap_words:1 in
  let layer = Layers.per_layer_values ~untraced:a ~traced in
  Alcotest.(check (list string)) "end-to-end catalogue" (List.map fst Layers.end_to_end)
    (List.map (fun m -> m.Layers.name) e2e);
  Alcotest.(check (list string)) "per-layer catalogue" (List.map fst Layers.per_layer)
    (List.map (fun m -> m.Layers.name) layer);
  List.iter
    (fun (m : Layers.metric) ->
      if m.Layers.name <> "setup_s" && m.Layers.name <> "ops_per_s" && m.Layers.name <> "peak_heap_mb" then
        Alcotest.(check bool) (m.Layers.name ^ " > 0") true (m.Layers.value > 0.0))
    e2e;
  let fail_ratio = List.find (fun m -> m.Layers.name = "fail_ratio") layer in
  Alcotest.check close "fail_ratio is the tally's" (Tally.ratio a.W.tally) fail_ratio.Layers.value

let test_bcast_delivers_everything () =
  let e = W.run W.Bcast_wan (W.toy W.Bcast_wan) ~seed:5 in
  Alcotest.(check int) "no failed pair" 0 (Tally.failed e.W.tally);
  Alcotest.(check int) "every broadcast complete in the window" e.W.ops e.W.completed

(* --- BENCHMARK.json ---------------------------------------------------------------- *)

let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.of_string_exn text in
  let metrics key =
    match Json.member key j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        ms
    | _ -> Alcotest.fail ("no " ^ key)
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Layers.end_to_end (metrics "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Layers.per_layer (metrics "per_layer");
  match Json.member "workloads" j with
  | Some (Json.List ws) ->
    Alcotest.(check (list string)) "workloads" (List.map W.name W.all)
      (List.map (fun w -> match Json.member "name" w with Some (Json.String n) -> n | _ -> "") ws)
  | _ -> Alcotest.fail "no workloads"

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentiles carry their count" `Quick test_pct;
          Alcotest.test_case "fail_ratio accounting" `Quick test_tally;
          Alcotest.test_case "span recorder and trace_event JSON" `Quick test_spans;
          Alcotest.test_case "timed store backend" `Quick test_timed_backend;
        ] );
      ( "smoke",
        List.map (fun k -> Alcotest.test_case (W.name k) `Quick (smoke k)) W.all
        @ [ Alcotest.test_case "bcast_wan delivers every pair" `Quick test_bcast_delivers_everything ] );
      ("contract", [ Alcotest.test_case "BENCHMARK.json matches the code" `Quick test_benchmark_json ]);
    ]
