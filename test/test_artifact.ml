(* The run-artifact format (Atum_sim.Artifact): every record survives
   its writer and decoder unchanged, the decoder is total on damaged
   input and names the field it rejects, and every consumer (analyze,
   export-trace, report, the chaos printer) reads the same records. *)

module Json = Atum_util.Json
module A = Atum_sim.Artifact
module Trace = Atum_sim.Trace
module Atum = Atum_core.Atum
module W = Atum_workload

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck.Gen

(* Labels with JSON's awkward cases: empty, '#', quotes, backslashes
   and control characters. *)
let label =
  string_size ~gen:(oneofl [ 'a'; 'z'; '.'; '#'; '"'; '\\'; '\n'; '\t'; '\000'; '\031'; 'x' ])
    (0 -- 6)

let finite = map (fun f -> if Float.is_finite f then f else 0.5) float
let id = oneof [ return (-1); 0 -- 1000 ]
let small_list g = list_size (0 -- 4) g

(* Object keys must be unique: the parser rejects duplicates. *)
let keyed g =
  let add acc (k, v) = if List.mem_assoc k acc then acc else acc @ [ (k, v) ] in
  map (List.fold_left add []) (small_list (pair label g))

let event : Trace.event t =
  let* time = finite and* kind = label and* node = id and* peer = id and* vgroup = id in
  let* size = 0 -- 5000 and* bid = id and* span = id and* parent = id and* cycle = id in
  return { Trace.time; kind; node; peer; vgroup; size; bid; span; parent; cycle }

let trace : A.trace t =
  let* capacity = nat and* total = nat and* dropped = nat and* dropped_by_kind = keyed nat in
  let* sample_rate = finite and* sampled_out = nat and* sampled_out_by_kind = keyed nat in
  let* admitted_by_kind = keyed nat and* events = small_list event in
  return
    {
      A.capacity;
      total;
      dropped;
      dropped_by_kind;
      sample_rate;
      sampled_out;
      sampled_out_by_kind;
      admitted_by_kind;
      events;
    }

let series : A.series t =
  let* n = 0 -- 3 and* mean = finite and* p50 = finite and* p99 = finite in
  let* samples = opt (small_list finite) in
  (* The writer leaves the statistics of an empty series out. *)
  if n = 0 then return { A.n; mean = 0.0; p50 = 0.0; p99 = 0.0; samples }
  else return { A.n; mean; p50; p99; samples }

let metrics : A.metrics t =
  let* counters = keyed int and* series = keyed series in
  return { A.counters; series }

let label_profile : Atum_sim.Engine.label_profile t =
  let* label = label and* events = nat and* wall_self_s = finite and* vt_first = finite in
  let* vt_last = finite and* delay_hist = small_list (pair (0 -- 23) nat) in
  return { Atum_sim.Engine.label; events; wall_self_s; vt_first; vt_last; delay_hist }

let profile : A.profile t =
  let* wall_clock_enabled = bool and* events_total = nat and* labels = small_list label_profile in
  return { A.wall_clock_enabled; events_total; labels }

let telemetry : A.telemetry t =
  let* times = small_list finite in
  let* gauges = keyed (list_repeat (List.length times) finite) in
  let* period_s = finite and* capacity = nat and* samples_total = nat and* samples_kept = nat in
  return { A.period_s; capacity; samples_total; samples_kept; times; gauges }

let nodes = list_size (1 -- 3) nat

let fault_entry : Atum_sim.Fault.entry t =
  let* after = finite and* p = finite and* factor = finite and* duration = finite in
  let* step =
    oneof
      [
        map (fun g -> Atum_sim.Fault.Partition g) (list_size (1 -- 2) nodes);
        return Atum_sim.Fault.Heal;
        map (fun n -> Atum_sim.Fault.Crash n) nodes;
        map (fun n -> Atum_sim.Fault.Recover n) nodes;
        return (Atum_sim.Fault.Loss_burst { p; duration });
        return (Atum_sim.Fault.Latency_spike { factor; duration });
        return (Atum_sim.Fault.Capacity_degrade { factor; duration });
        map (fun nodes -> Atum_sim.Fault.Restart { nodes; down = duration }) nodes;
      ]
  in
  return { Atum_sim.Fault.after; step }

let resilience : A.resilience t =
  let phase =
    let* phase = label and* broadcasts = nat and* expected = nat and* delivered = nat in
    let* success = finite in
    return { A.phase; broadcasts; expected; delivered; success }
  in
  let heal =
    let* heal_at = finite and* converged_at = opt finite and* time_to_heal = opt finite in
    return { A.heal_at; converged_at; time_to_heal }
  in
  let restart =
    let* node = nat and* restarted_at = finite and* rejoined_at = opt finite in
    let* caught_up_at = opt finite and* fallback = bool and* replayed = nat in
    return { A.node; restarted_at; rejoined_at; caught_up_at; fallback; replayed }
  in
  let* n = nat and* seed = int and* target_vg = id and* attackers = nat in
  let* schedule = small_list fault_entry and* faults_applied = nat in
  let* phases = small_list phase and* heals = small_list heal in
  let* tth_percentiles = keyed finite and* restarts = small_list restart in
  let* ttr_percentiles = keyed finite and* ttc_percentiles = keyed finite in
  let* recovery_fallbacks = nat and* violations_before = keyed nat in
  let* violations_during = keyed nat and* violations_after = keyed nat in
  let* post_heal_deliveries = nat and* consistency = label and* converged = bool in
  let* postmortem = opt label in
  return
    {
      A.n;
      seed;
      target_vg;
      attackers;
      schedule;
      faults_applied;
      phases;
      heals;
      tth_percentiles;
      restarts;
      ttr_percentiles;
      ttc_percentiles;
      recovery_fallbacks;
      violations_before;
      violations_during;
      violations_after;
      post_heal_deliveries;
      consistency;
      converged;
      postmortem;
    }

let build_info : A.build_info t =
  let* version = label and* git = label and* seed = int and* cmdline = label in
  return { A.version; git; seed; cmdline }

let header : A.header t =
  let* cmd = label and* seed = int and* build_info = build_info in
  (* "analyze" and "compare" name the tool envelopes, not runs. *)
  let cmd = if cmd = "analyze" || cmd = "compare" then "run" else cmd in
  return { A.cmd; seed; build_info }

let trigger : A.trigger t =
  let* at = finite and* reason = label and* detail = label and* node = id and* vgroup = id in
  let* bid = id in
  return { A.at; reason; detail; node; vgroup; bid }

let flight : A.flight t =
  let* sim_time_s = finite and* trigger = opt trigger and* last = trace in
  let* telemetry = opt telemetry and* metrics = metrics and* profile = profile in
  (* A postmortem's window keeps no per-kind counts. *)
  let last = { last with dropped_by_kind = []; sampled_out_by_kind = []; admitted_by_kind = [] } in
  return { A.sim_time_s; trigger; last; telemetry; metrics; profile }

(* Untyped payloads (command summaries, bench rows, analyses): keys
   are prefixed so they never collide with a typed member. *)
let json_value =
  oneof
    [
      return Json.Null;
      map (fun b -> Json.Bool b) bool;
      map (fun i -> Json.Int i) int;
      map (fun f -> Json.Float f) finite;
      map (fun s -> Json.String s) label;
      map (fun xs -> Json.List (List.map (fun i -> Json.Int i) xs)) (small_list int);
    ]

let payload = map (List.map (fun (k, v) -> ("x_" ^ k, v))) (keyed json_value)

let artifact : A.t t =
  oneof
    [
      (let* header = header and* summary = payload and* resilience = opt resilience in
       let* metrics = metrics and* trace = trace and* profile = profile in
       return (A.Run { header; summary; resilience; metrics; trace; profile }));
      (let* header = header and* telemetry = telemetry and* profile = profile in
       return (A.Timeseries { header; telemetry; profile }));
      map (fun f -> A.Postmortem f) flight;
      (let* fig = label and* scale = label and* seed = int and* build_info = build_info in
       let* wall_s = finite and* extra = payload and* rows = small_list json_value in
       return (A.Bench { fig; scale; seed; build_info; wall_s; extra; rows }));
      (let* source = label and* build_info = build_info and* analysis = payload in
       return (A.Analysis { source; build_info; analysis }));
      (let* old_file = label and* new_file = label and* comparison = json_value in
       return (A.Comparison { old_file; new_file; comparison }));
    ]

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

(* Through the bytes, as a reader of the file sees it. *)
let reread j = Json.of_string_exn (Json.to_string j)

let roundtrip name codec gen =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~print:(fun x -> Json.to_string (A.encode codec x)) gen)
    (fun x -> A.decode codec (reread (A.encode codec x)) = Ok x)

let prop_artifact_roundtrip =
  QCheck.Test.make ~name:"artifact: decode (encode t) = t" ~count:500
    (QCheck.make ~print:(fun a -> Json.to_string (A.to_json a)) artifact)
    (fun a -> A.of_json (reread (A.to_json a)) = Ok a)

let section_roundtrips =
  [
    roundtrip "metrics: decode (encode r) = r" A.metrics metrics;
    roundtrip "trace: decode (encode r) = r" A.trace trace;
    roundtrip "profile: decode (encode r) = r" A.profile profile;
    roundtrip "telemetry: decode (encode r) = r" A.telemetry telemetry;
    roundtrip "resilience: decode (encode r) = r" A.resilience resilience;
    prop_artifact_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* Real artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let build_info_test = { A.version = "test"; git = "test"; seed = 3; cmdline = "test" }

(* A small System run, traced or not, and the artifacts a --json run of
   it writes: its run artifact, its timeseries and a postmortem. *)
let real_artifacts ~traced =
  let b = W.Builder.grow ~trace:traced ~trace_capacity:512 ~n:12 ~seed:3 () in
  ignore (W.Latency_exp.run b ~messages:2 ~gap:2.0 ~seed:3);
  let atum = b.W.Builder.atum in
  let header = { A.cmd = "broadcast"; seed = 3; build_info = build_info_test } in
  let profile = A.profile_of (Atum.engine atum) in
  let fl =
    Atum_sim.Flight.create ~window:64 ~engine:(Atum.engine atum) ~trace:(Atum.trace atum)
      ~metrics:(Atum.metrics atum) ()
  in
  Option.iter (Atum_sim.Flight.set_telemetry fl) (Atum.telemetry atum);
  Atum_sim.Flight.trip fl ~reason:"test" ~detail:"forced" ();
  [
    A.Run
      {
        header;
        summary = [ ("n", Json.Int 12) ];
        resilience = None;
        metrics = A.metrics_of (Atum.metrics atum);
        trace = A.trace_of (Atum.trace atum);
        profile;
      };
    A.Timeseries
      { header; telemetry = A.telemetry_of (Option.get (Atum.telemetry atum)); profile };
    A.Postmortem (Atum_sim.Flight.snapshot fl);
  ]

let real = lazy (List.map A.to_json (real_artifacts ~traced:false @ real_artifacts ~traced:true))

(* Pre-order node count and rewriting of the [k]th node. *)
let rec size = function
  | Json.List xs -> 1 + List.fold_left (fun a x -> a + size x) 0 xs
  | Json.Obj fs -> 1 + List.fold_left (fun a (_, x) -> a + size x) 0 fs
  | _ -> 1

let rewrite k f j =
  let k = ref k in
  let rec go j =
    let here = !k = 0 in
    decr k;
    if here then f j
    else
      match j with
      | Json.List xs -> Json.List (List.map go xs)
      | Json.Obj fs -> Json.Obj (List.map (fun (n, x) -> (n, go x)) fs)
      | j -> j
  in
  go j

(* A value of another type than [j]'s. *)
let swap_type = function
  | Json.Int _ -> Json.String "1"
  | Json.Float _ -> Json.Bool true
  | Json.String _ -> Json.Int 7
  | Json.Bool _ -> Json.Float 1.5
  | Json.Null -> Json.List []
  | Json.List _ -> Json.Obj []
  | Json.Obj _ -> Json.Null

let drop_member i = function
  | Json.Obj fs when fs <> [] -> Json.Obj (List.filteri (fun j _ -> j <> i mod List.length fs) fs)
  | j -> j

type mutation = Flip of int * char | Delete of int * int | Swap of int

let mutation =
  oneof
    [
      map2 (fun p c -> Flip (p, c)) nat char;
      map2 (fun k i -> Delete (k, i)) nat nat;
      map (fun k -> Swap k) nat;
    ]

let apply_mutation j = function
  | Flip (p, c) ->
    let s = Bytes.of_string (Json.to_string ~pretty:false j) in
    Bytes.set s (p mod Bytes.length s) c;
    Bytes.to_string s
  | Delete (k, i) -> Json.to_string (rewrite (k mod size j) (drop_member i) j)
  | Swap k -> Json.to_string (rewrite (k mod size j) swap_type j)

let prop_decoder_total =
  QCheck.Test.make ~name:"decoder never raises on mutated real artifacts" ~count:600
    (QCheck.make QCheck.Gen.(pair (0 -- 5) mutation))
    (fun (which, m) ->
      let j = List.nth (Lazy.force real) which in
      (match Result.bind (Json.of_string (apply_mutation j m)) A.of_json with
      | Ok _ | Error _ -> ());
      true)

let test_real_roundtrip () =
  List.iter
    (fun j ->
      match A.of_json (reread j) with
      | Ok a ->
        Alcotest.(check string) "re-encoded bytes" (Json.to_string j) (Json.to_string (A.to_json a))
      | Error e -> Alcotest.failf "real artifact does not decode: %s" e)
    (Lazy.force real)

(* ------------------------------------------------------------------ *)
(* Unit cases                                                          *)
(* ------------------------------------------------------------------ *)

(* [j] with the member [key] replaced by [v]. *)
let set key v = function
  | Json.Obj fs -> Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fs)
  | j -> j

let with_events events run =
  match Json.member "trace" run with
  | Some t -> set "trace" (set "events" events t) run
  | None -> run

let test_bad_event_named () =
  let run = List.hd (Lazy.force real) in
  let bad = Json.of_string_exn {|[{"t":"bad","kind":"x","bid":"q"}]|} in
  (match A.of_json (with_events bad run) with
  | Ok _ -> Alcotest.fail "an event time of the wrong type must be rejected"
  | Error e ->
    Alcotest.(check bool) ("error names trace.events[0].t: " ^ e) true
      (String.starts_with ~prefix:"trace.events[0].t:" e));
  (* Absent optional fields read as their defaults. *)
  let sparse = Json.of_string_exn {|[{"t":2.5,"kind":"x"}]|} in
  match A.of_json (with_events sparse run) with
  | Ok (A.Run { trace = { events = [ e ]; _ }; _ }) ->
    Alcotest.(check int) "bid defaults to -1" (-1) e.Trace.bid;
    Alcotest.(check int) "node defaults to -1" (-1) e.Trace.node;
    Alcotest.(check int) "size defaults to 0" 0 e.Trace.size
  | Ok _ -> Alcotest.fail "expected a run with one event"
  | Error e -> Alcotest.failf "sparse event rejected: %s" e

let test_load_unreadable () =
  (match A.load "." with
  | Ok _ -> Alcotest.fail "a directory is not an artifact"
  | Error _ -> ());
  match A.load "no-such-artifact.json" with
  | Ok _ -> Alcotest.fail "a missing file is not an artifact"
  | Error _ -> ()

let test_analyze_postmortem () =
  let pm = List.nth (Lazy.force real) 5 in
  match Result.bind (A.of_json pm) W.Analyze.of_artifact with
  | Error e -> Alcotest.failf "analyze of a postmortem failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "events from the window" true (r.W.Analyze.events_seen > 0);
    Alcotest.(check bool) "events before the window count as dropped" true
      r.W.Analyze.trace_truncated

let test_resilience_printer () =
  (* The restart scenario: the live result and the record read back
     from its written artifact print the same lines, restarts
     included. *)
  let built = W.Builder.grow ~n:40 ~seed:5 ~monitor:false () in
  let r = W.Resilience.run ~messages_per_phase:4 ~attackers:0 ~restart:true built ~seed:5 () in
  let live = Format.asprintf "%a" W.Report.pp_resilience r in
  match A.decode A.resilience (reread (A.encode A.resilience r)) with
  | Error e -> Alcotest.failf "resilience section does not decode: %s" e
  | Ok back ->
    Alcotest.(check string) "same lines" live (Format.asprintf "%a" W.Report.pp_resilience back);
    let restart_lines =
      List.filter (String.starts_with ~prefix:"restart node") (String.split_on_char '\n' live)
    in
    Alcotest.(check bool) "one restart line per restart" true
      (r.restarts <> [] && List.length restart_lines = List.length r.restarts)

let test_cli_report_unreadable () =
  let exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/atum_cli.exe"
  in
  let err_file = Filename.temp_file "report_dir" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s report . 2> %s" (Filename.quote exe) (Filename.quote err_file))
  in
  Alcotest.(check int) "report on a directory exits 1" 1 code;
  let err = In_channel.with_open_bin err_file In_channel.input_all in
  Sys.remove err_file;
  Alcotest.(check bool) ("message names the file: " ^ err) true
    (String.starts_with ~prefix:"report: .: " err)

let () =
  Alcotest.run "artifact"
    [
      ("roundtrip", List.map QCheck_alcotest.to_alcotest section_roundtrips);
      ( "decoder",
        [
          QCheck_alcotest.to_alcotest prop_decoder_total;
          Alcotest.test_case "real artifacts re-encode byte-identically" `Quick test_real_roundtrip;
          Alcotest.test_case "wrongly typed field named by path" `Quick test_bad_event_named;
          Alcotest.test_case "unreadable paths are errors" `Quick test_load_unreadable;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "analyze reads a postmortem" `Quick test_analyze_postmortem;
          Alcotest.test_case "live and decoded resilience print alike" `Slow
            test_resilience_printer;
          Alcotest.test_case "report on a directory exits 1" `Quick test_cli_report_unreadable;
        ] );
    ]
