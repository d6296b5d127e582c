(* The observability layer end to end: leveled/sampled tracing, the
   flight recorder, the Perfetto exporter and the perf-regression
   differ.  The common thread is determinism — sampling decisions,
   postmortem dumps and timeline exports must all be byte-stable
   across same-seed runs, because CI diffs them. *)

module Json = Atum_util.Json
module Trace = Atum_sim.Trace
module Flight = Atum_sim.Flight
module A = Atum_sim.Artifact
module Telemetry = Atum_sim.Telemetry
module Atum = Atum_core.Atum
module W = Atum_workload

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Trace levels and sampling                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_levels () =
  Alcotest.(check bool) "net.* defaults Sampled" true
    (Trace.default_level "net.send" = Trace.Sampled);
  Alcotest.(check bool) "bcast.hop defaults Sampled" true
    (Trace.default_level "bcast.hop" = Trace.Sampled);
  Alcotest.(check bool) "debug.* defaults Debug" true
    (Trace.default_level "debug.sweep" = Trace.Debug);
  Alcotest.(check bool) "sagas default Always" true
    (Trace.default_level "join.begin" = Trace.Always);
  Alcotest.(check bool) "violations default Always" true
    (Trace.default_level "monitor.violation.vg_oversize" = Trace.Always);
  let t = Trace.create ~enabled:true () in
  Trace.set_level t ~kind:"join.begin" Trace.Debug;
  Alcotest.(check bool) "override wins" true (Trace.level_of t "join.begin" = Trace.Debug);
  Trace.emit t ~time:1.0 ~kind:"join.begin" ();
  Alcotest.(check int) "debug kind off by default" 0 (Trace.length t);
  Alcotest.(check int) "suppression counted" 1 (Trace.sampled_out t);
  Trace.set_debug t true;
  Trace.emit t ~time:2.0 ~kind:"join.begin" ();
  Alcotest.(check int) "debug kind on with set_debug" 1 (Trace.length t);
  Alcotest.(check bool) "lossy once anything suppressed" true (Trace.lossy t)

let test_trace_sampling_deterministic () =
  (* Same emission sequence, same rate: the admitted subset must be
     identical — and an admitted bid keeps every one of its hops. *)
  let run () =
    let t = Trace.create ~enabled:true () in
    Trace.set_sample_rate t 0.25;
    for bid = 0 to 199 do
      for hop = 0 to 4 do
        Trace.emit t ~time:(float_of_int (bid + hop)) ~kind:"bcast.hop" ~node:hop ~bid ()
      done
    done;
    t
  in
  let t1 = run () and t2 = run () in
  let admitted t =
    Trace.fold t ~init:[] ~f:(fun acc e -> (e.Trace.bid, e.Trace.node) :: acc)
  in
  Alcotest.(check bool) "admitted subsets identical" true (admitted t1 = admitted t2);
  Alcotest.(check int) "exact counters agree" (Trace.sampled_out t1) (Trace.sampled_out t2);
  Alcotest.(check int) "admitted + sampled_out = emitted" 1000
    (Trace.total t1 + Trace.sampled_out t1);
  Alcotest.(check bool) "some admitted" true (Trace.total t1 > 0);
  Alcotest.(check bool) "some suppressed" true (Trace.sampled_out t1 > 0);
  (* whole-lineage property: each bid is all-in or all-out *)
  let by_bid = Hashtbl.create 64 in
  Trace.iter t1 (fun e ->
      Hashtbl.replace by_bid e.Trace.bid
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_bid e.Trace.bid)));
  Hashtbl.iter
    (fun bid n ->
      Alcotest.(check int) (Printf.sprintf "bid %d kept whole lineage" bid) 5 n)
    by_bid;
  (* rate 1.0 admits everything; counters exposed per kind *)
  let t3 = Trace.create ~enabled:true () in
  Trace.emit t3 ~time:0.0 ~kind:"bcast.hop" ~bid:7 ();
  Alcotest.(check int) "rate 1.0 admits all" 1 (Trace.length t3);
  Alcotest.(check (list (pair string int))) "admitted_by_kind" [ ("bcast.hop", 1) ]
    (Trace.admitted_by_kind t3);
  Alcotest.(check bool) "bad rate rejected" true
    (try
       Trace.set_sample_rate t3 1.5;
       false
     with Invalid_argument _ -> true)

let test_trace_last_events () =
  let t = Trace.create ~capacity:8 ~enabled:true () in
  for i = 0 to 19 do
    Trace.emit t ~time:(float_of_int i) ~kind:"tick" ~node:i ()
  done;
  let last = Trace.last_events t 3 in
  Alcotest.(check (list int)) "newest 3, oldest first" [ 17; 18; 19 ]
    (List.map (fun e -> e.Trace.node) last);
  Alcotest.(check int) "window larger than ring clamps" 8
    (List.length (Trace.last_events t 100));
  Alcotest.(check bool) "ring wrap makes it lossy" true (Trace.lossy t)

(* ------------------------------------------------------------------ *)
(* Telemetry gauge order (satellite regression)                        *)
(* ------------------------------------------------------------------ *)

let test_gauge_names_order () =
  (* gauge_names must report the export order both before AND after
     start — pre-start registrations sorted by name, late ones
     appended.  It used to sort only at start time, so the pre-start
     answer disagreed with the export. *)
  let eng = Atum_sim.Engine.create () in
  let tel = Telemetry.create eng in
  Telemetry.register tel "zeta" (fun () -> 0.0);
  Telemetry.register tel "alpha" (fun () -> 0.0);
  Telemetry.register tel "mid" (fun () -> 0.0);
  Alcotest.(check (list string)) "sorted before start" [ "alpha"; "mid"; "zeta" ]
    (Telemetry.gauge_names tel);
  Telemetry.start tel;
  Alcotest.(check (list string)) "unchanged by start" [ "alpha"; "mid"; "zeta" ]
    (Telemetry.gauge_names tel);
  Telemetry.register tel "aaa_late" (fun () -> 0.0);
  Alcotest.(check (list string)) "late gauge appended, not re-sorted"
    [ "alpha"; "mid"; "zeta"; "aaa_late" ]
    (Telemetry.gauge_names tel)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_trip_and_snapshot () =
  let eng = Atum_sim.Engine.create () in
  let trace = Trace.create ~enabled:true () in
  let metrics = Atum_sim.Metrics.create () in
  let fl = Flight.create ~window:4 ~engine:eng ~trace ~metrics () in
  Alcotest.(check bool) "untripped initially" true (Flight.tripped fl = None);
  for i = 0 to 9 do
    Trace.emit trace ~time:(float_of_int i) ~kind:"tick" ~node:i ()
  done;
  Flight.trip fl ~reason:"vg_oversize" ~detail:"21 members" ~vgroup:3 ();
  Flight.trip fl ~reason:"later" ();
  (match Flight.tripped fl with
  | None -> Alcotest.fail "trip not recorded"
  | Some tr ->
    Alcotest.(check string) "first trip wins" "vg_oversize" tr.reason;
    Alcotest.(check int) "vgroup captured" 3 tr.vgroup);
  let doc = A.to_json (A.Postmortem (Flight.snapshot fl)) in
  (match Json.member "trace_last" doc with
  | Some tl -> (
    Alcotest.(check bool) "window recorded" true
      (Json.member "window" tl = Some (Json.Int 4));
    Alcotest.(check bool) "kept clamps to window" true
      (Json.member "kept" tl = Some (Json.Int 4));
    match Json.member "events" tl with
    | Some (Json.List evs) -> Alcotest.(check int) "last-K events only" 4 (List.length evs)
    | _ -> Alcotest.fail "trace_last.events missing")
  | None -> Alcotest.fail "trace_last section missing");
  Alcotest.(check bool) "no cmdline provenance (determinism)" false
    (contains "cmdline" (Json.to_string doc))

let test_flight_armed_autodump () =
  (* An armed recorder (Builder.grow ~flight_dir) must write the
     postmortem the moment it trips — capturing state at the failure,
     not at process exit. *)
  let dir = "flight_autodump" in
  let b =
    W.Builder.grow ~trace:true ~monitor:true ~flight_dir:dir ~n:16 ~seed:9 ()
  in
  let fl = match b.W.Builder.flight with
    | Some fl -> fl
    | None -> Alcotest.fail "grow ~flight_dir must arm a recorder"
  in
  Alcotest.(check int) "no dump before the trip" 0 (Flight.dumps fl);
  Flight.trip fl ~reason:"test_kind" ~detail:"forced by test" ~vgroup:1 ();
  Alcotest.(check int) "trip on an armed recorder dumps" 1 (Flight.dumps fl);
  let path = Filename.concat dir Flight.filename in
  Alcotest.(check bool) "dump at armed dir" true (Sys.file_exists path);
  Alcotest.(check bool) "last_path agrees" true (Flight.last_path fl = Some path);
  match Json.of_string (read_file path) with
  | Error e -> Alcotest.failf "postmortem is not valid JSON: %s" e
  | Ok j -> (
    Alcotest.(check bool) "artifact tagged" true
      (Json.member "artifact" j = Some (Json.String "postmortem"));
    Alcotest.(check bool) "schema versioned" true
      (Json.member "schema_version" j = Some (Json.Int A.schema_version));
    match Json.member "trigger" j with
    | Some trg ->
      Alcotest.(check bool) "trigger reason" true
        (Json.member "reason" trg = Some (Json.String "test_kind"))
    | None -> Alcotest.fail "trigger missing")

let test_flight_snapshot_deterministic () =
  (* Two same-seed chaos runs, each tripped by its own violations:
     byte-identical snapshots. *)
  let run () =
    let b = W.Builder.grow ~trace:true ~n:24 ~seed:5 () in
    let r = W.Resilience.run ~messages_per_phase:4 ~attackers:2 b ~seed:5 () in
    ignore r;
    let atum = b.W.Builder.atum in
    let fl =
      Flight.create ~engine:(Atum.engine atum) ~trace:(Atum.trace atum)
        ~metrics:(Atum.metrics atum) ()
    in
    (match Atum.telemetry atum with
    | Some tel -> Flight.set_telemetry fl tel
    | None -> ());
    Flight.trip fl ~reason:"test" ();
    Json.to_string (A.to_json (A.Postmortem (Flight.snapshot fl)))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "snapshot non-trivial" true (String.length a > 500);
  Alcotest.(check bool) "snapshot byte-identical" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* Analyze: sampling awareness                                         *)
(* ------------------------------------------------------------------ *)

(* The run artifact a [--json] CLI run would write, read back from its
   bytes. *)
let written_run atum =
  let build_info = { A.version = "test"; git = "test"; seed = 0; cmdline = "test" } in
  let a =
    A.Run
      {
        header = { cmd = "test"; seed = 0; build_info };
        summary = [];
        resilience = None;
        metrics = A.metrics_of (Atum.metrics atum);
        trace = A.trace_of (Atum.trace atum);
        profile = A.profile_of (Atum.engine atum);
      }
  in
  match A.of_json (Json.of_string_exn (Json.to_string (A.to_json a))) with
  | Ok a -> a
  | Error e -> Alcotest.failf "written run artifact does not decode: %s" e

let test_analyze_sampling_section () =
  let b = W.Builder.grow ~trace:true ~sample_rate:0.25 ~n:24 ~seed:7 () in
  ignore (W.Latency_exp.run b ~messages:6 ~gap:3.0 ~seed:7);
  let atum = b.W.Builder.atum in
  let a = W.Analyze.of_trace (Atum.trace atum) ~metrics:(Atum.metrics atum) in
  Alcotest.(check bool) "rate surfaced" true
    (Float.abs (a.W.Analyze.sample_rate -. 0.25) < 1e-9);
  Alcotest.(check bool) "suppressed events counted" true
    (a.W.Analyze.sampled_out_total > 0);
  Alcotest.(check bool) "flagged truncated" true a.W.Analyze.trace_truncated;
  let j = Json.to_string (W.Analyze.to_json a) in
  Alcotest.(check bool) "sampling section exported" true (contains "\"sampling\"" j);
  Alcotest.(check bool) "estimates flag exported" true (contains "\"estimates\"" j);
  let rendered = Format.asprintf "%a" W.Analyze.pp a in
  Alcotest.(check bool) "pp warns about lossy trace" true (contains "estimates" rendered);
  (* reconstructing from a written artifact keeps the counters *)
  match W.Analyze.of_artifact (written_run atum) with
  | Error e -> Alcotest.failf "artifact round-trip failed: %s" e
  | Ok a2 ->
    Alcotest.(check int) "sampled_out survives round-trip" a.W.Analyze.sampled_out_total
      a2.W.Analyze.sampled_out_total;
    Alcotest.(check bool) "truncated flag survives" true a2.W.Analyze.trace_truncated

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let structurally_valid_trace_events doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
    List.iter
      (fun ev ->
        (match Json.member "name" ev with
        | Some (Json.String _) -> ()
        | _ -> Alcotest.fail "event missing name");
        (match Json.member "ph" ev with
        | Some (Json.String ph) ->
          Alcotest.(check bool) ("known phase " ^ ph) true
            (List.mem ph [ "X"; "i"; "M" ]);
          if ph <> "M" then (
            match Json.member "ts" ev with
            | Some (Json.Int ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0)
            | _ -> Alcotest.fail "timed event missing integer ts");
          if ph = "X" then (
            match Json.member "dur" ev with
            | Some (Json.Int d) -> Alcotest.(check bool) "dur non-negative" true (d >= 0)
            | _ -> Alcotest.fail "complete event missing integer dur")
        | _ -> Alcotest.fail "event missing ph");
        match Json.member "pid" ev with
        | Some (Json.Int _) -> ()
        | _ -> Alcotest.fail "event missing pid")
      evs;
    List.length evs
  | _ -> Alcotest.fail "traceEvents missing"

let test_perfetto_export () =
  (* The ring holds the whole run, so which slices the export has does
     not depend on where the ring wrapped. *)
  let b = W.Builder.grow ~trace:true ~trace_capacity:(1 lsl 19) ~n:24 ~seed:5 () in
  ignore (W.Resilience.run ~messages_per_phase:4 ~attackers:2 b ~seed:5 ());
  let atum = b.W.Builder.atum in
  Alcotest.(check int) "no event dropped by ring wrap" 0 (Trace.dropped (Atum.trace atum));
  let doc =
    W.Perfetto.of_events
      (Trace.events (Atum.trace atum))
      ~profile:(Atum_sim.Engine.profile (Atum.engine atum))
  in
  let n = structurally_valid_trace_events doc in
  Alcotest.(check bool) (Printf.sprintf "%d events, expected many" n) true (n > 100);
  let s = Json.to_string doc in
  Alcotest.(check bool) "has saga slices" true (contains "\"join\"" s);
  Alcotest.(check bool) "has fault track" true (contains "\"faults\"" s);
  Alcotest.(check bool) "has engine track" true (contains "\"engine\"" s);
  (* determinism: rebuilding from the same artifact is byte-identical *)
  (match W.Perfetto.of_artifact (written_run atum) with
  | Error e -> Alcotest.failf "of_artifact failed: %s" e
  | Ok doc2 ->
    Alcotest.(check bool) "of_artifact matches of_events" true
      (String.equal s (Json.to_string doc2)));
  Alcotest.(check string) "output naming" "ATUM_broadcast.trace.json"
    (W.Perfetto.output_name "runs/ATUM_broadcast.json");
  match
    W.Perfetto.of_artifact
      (A.Comparison { old_file = "a"; new_file = "b"; comparison = Json.Null })
  with
  | Ok _ -> Alcotest.fail "traceless artifact must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

let obj_of_string s =
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.failf "bad json: %s" e

let test_compare_matrix () =
  let old_json =
    obj_of_string
      {|{"rows": [{"label": "a", "events_per_sec": 100.0, "p99_s": 0.5}],
         "wall_s": 3.0, "legacy_metric": 7.0}|}
  in
  let case name new_s ~regressed ~improved check =
    let r = W.Compare.run ~old_json ~new_json:(obj_of_string new_s) () in
    Alcotest.(check int) (name ^ ": regressed") regressed r.W.Compare.regressed;
    Alcotest.(check int) (name ^ ": improved") improved r.W.Compare.improved;
    check r
  in
  (* within threshold: 2% dip on a 10% gate *)
  case "within"
    {|{"rows": [{"label": "a", "events_per_sec": 98.0, "p99_s": 0.51}],
       "wall_s": 30.0, "legacy_metric": 7.0}|}
    ~regressed:0 ~improved:0
    (fun r -> Alcotest.(check bool) "no gate failures" true (W.Compare.regressions r = []));
  (* improvement: throughput up, latency down *)
  case "improved"
    {|{"rows": [{"label": "a", "events_per_sec": 150.0, "p99_s": 0.3}],
       "wall_s": 3.0, "legacy_metric": 7.0}|}
    ~regressed:0 ~improved:2 (fun _ -> ());
  (* regression in both directions *)
  case "regressed"
    {|{"rows": [{"label": "a", "events_per_sec": 50.0, "p99_s": 0.9}],
       "wall_s": 3.0, "legacy_metric": 7.0}|}
    ~regressed:2 ~improved:0
    (fun r ->
      let keys = List.map (fun d -> d.W.Compare.key) (W.Compare.regressions r) in
      Alcotest.(check bool) "throughput drop flagged" true
        (List.mem "rows[a].events_per_sec" keys);
      Alcotest.(check bool) "latency rise flagged" true (List.mem "rows[a].p99_s" keys));
  (* a metric that vanished is a gate failure *)
  case "missing"
    {|{"rows": [{"label": "a", "events_per_sec": 100.0, "p99_s": 0.5}], "wall_s": 3.0}|}
    ~regressed:1 ~improved:0
    (fun r ->
      match W.Compare.regressions r with
      | [ d ] ->
        Alcotest.(check string) "missing key" "legacy_metric" d.W.Compare.key;
        Alcotest.(check bool) "status Missing" true (d.W.Compare.status = W.Compare.Missing)
      | ds -> Alcotest.failf "expected one missing delta, got %d" (List.length ds));
  (* wall time is informational no matter how much it moves *)
  case "wall ignored"
    {|{"rows": [{"label": "a", "events_per_sec": 100.0, "p99_s": 0.5}],
       "wall_s": 900.0, "legacy_metric": 7.0}|}
    ~regressed:0 ~improved:0 (fun _ -> ());
  Alcotest.(check bool) "wall keys Info" true
    (W.Compare.direction_of_key "rows[a].wall_s" = W.Compare.Info);
  Alcotest.(check bool) "throughput higher-better" true
    (W.Compare.direction_of_key "rows[a].events_per_sec" = W.Compare.Higher_better);
  Alcotest.(check bool) "durations lower-better" true
    (W.Compare.direction_of_key "rows[a].p99_s" = W.Compare.Lower_better)

(* ------------------------------------------------------------------ *)
(* CLI end-to-end: chaos --dump-on-violation byte identity             *)
(* ------------------------------------------------------------------ *)

let test_cli_postmortem_byte_identity () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/atum_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "cli executable missing at %s" exe);
  let sh cmd = Alcotest.(check int) ("exit status of " ^ cmd) 0 (Sys.command cmd) in
  let run dir =
    sh
      (Printf.sprintf
         "%s chaos -n 48 --seed 11 --json --out-dir %s --dump-on-violation > /dev/null"
         (Filename.quote exe) (Filename.quote dir));
    let path = Filename.concat dir "ATUM_postmortem.json" in
    Alcotest.(check bool) ("postmortem written in " ^ dir) true (Sys.file_exists path);
    read_file path
  in
  let a = run "cli_pm_a" and b = run "cli_pm_b" in
  Alcotest.(check bool) "postmortem non-trivial" true (String.length a > 500);
  Alcotest.(check bool) "postmortem byte-identical across runs" true (String.equal a b);
  (* and it feeds straight into export-trace *)
  sh
    (Printf.sprintf "%s export-trace %s --out-dir cli_pm_a > /dev/null"
       (Filename.quote exe)
       (Filename.quote (Filename.concat "cli_pm_a" "ATUM_postmortem.json")));
  match Json.of_string (read_file (Filename.concat "cli_pm_a" "ATUM_postmortem.trace.json")) with
  | Error e -> Alcotest.failf "exported timeline is not valid JSON: %s" e
  | Ok doc ->
    let n = structurally_valid_trace_events doc in
    Alcotest.(check bool) (Printf.sprintf "%d timeline events" n) true (n > 0)

(* A postmortem's trace is the flight-recorder window: the events
   before it are counted, and named for what they are, not as ring
   overwrites. *)
let test_cli_postmortem_analyze () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/atum_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "cli executable missing at %s" exe);
  let sh cmd = Alcotest.(check int) ("exit status of " ^ cmd) 0 (Sys.command cmd) in
  sh
    (Printf.sprintf "%s chaos -n 48 --seed 11 --json --out-dir cli_pm_an --dump-on-violation > /dev/null"
       (Filename.quote exe));
  sh
    (Printf.sprintf "%s analyze %s > cli_pm_an/analyze.txt" (Filename.quote exe)
       (Filename.quote (Filename.concat "cli_pm_an" "ATUM_postmortem.json")));
  let out = read_file (Filename.concat "cli_pm_an" "analyze.txt") in
  Alcotest.(check bool) "no ring wrap claimed" false (contains "ring wrap" out);
  Alcotest.(check bool) "names the window" true (contains "precede the flight-recorder window" out)

let test_cli_compare_gate () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/atum_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "cli executable missing at %s" exe);
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "cmp_old.json" {|{"rows": [{"label": "a", "events_per_sec": 100.0}]}|};
  write "cmp_good.json" {|{"rows": [{"label": "a", "events_per_sec": 97.0}]}|};
  write "cmp_bad.json" {|{"rows": [{"label": "a", "events_per_sec": 10.0}]}|};
  let run args =
    Sys.command (Printf.sprintf "%s compare %s > /dev/null" (Filename.quote exe) args)
  in
  Alcotest.(check int) "clean compare exits 0" 0 (run "cmp_old.json cmp_good.json");
  Alcotest.(check int) "regression exits 1" 1 (run "cmp_old.json cmp_bad.json");
  Alcotest.(check int) "tight threshold flags the 3% dip" 1
    (run "cmp_old.json cmp_good.json --threshold 2");
  (* cmdliner reports CLI usage errors (unreadable positional arg) as 124 *)
  Alcotest.(check int) "missing file is a usage error" 124 (run "cmp_old.json nope.json")

let () =
  Alcotest.run "observability"
    [
      ( "trace",
        [
          Alcotest.test_case "levels" `Quick test_trace_levels;
          Alcotest.test_case "sampling deterministic" `Quick
            test_trace_sampling_deterministic;
          Alcotest.test_case "last_events window" `Quick test_trace_last_events;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "gauge_names order" `Quick test_gauge_names_order ] );
      ( "flight",
        [
          Alcotest.test_case "trip + snapshot" `Quick test_flight_trip_and_snapshot;
          Alcotest.test_case "armed autodump" `Quick test_flight_armed_autodump;
          Alcotest.test_case "snapshot deterministic" `Slow
            test_flight_snapshot_deterministic;
        ] );
      ( "analyze",
        [ Alcotest.test_case "sampling section" `Quick test_analyze_sampling_section ] );
      ( "perfetto",
        [ Alcotest.test_case "structural validity" `Slow test_perfetto_export ] );
      ( "compare",
        [ Alcotest.test_case "classification matrix" `Quick test_compare_matrix ] );
      ( "cli",
        [
          Alcotest.test_case "postmortem byte identity" `Slow
            test_cli_postmortem_byte_identity;
          Alcotest.test_case "postmortem analyze names the window" `Slow
            test_cli_postmortem_analyze;
          Alcotest.test_case "compare gate" `Slow test_cli_compare_gate;
        ] );
    ]
