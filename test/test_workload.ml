open Atum_workload
module Atum = Atum_core.Atum
module Params = Atum_core.Params

let small_params seed =
  { Params.default with Params.hc = 3; rwl = 4; round_duration = 0.5; seed }

(* ------------------------------------------------------------------ *)
(* Build info                                                          *)
(* ------------------------------------------------------------------ *)

(* Runs first in this binary, so its [git_describe] call is the
   process's first (the result is cached): made from a directory
   outside any checkout, it must still name the checkout the test
   binary was built in — what git reports from the test's own
   directory inside that checkout. *)
let test_build_info_ignores_cwd () =
  let home = Sys.getcwd () in
  let tmp = Filename.temp_file "atum_build_info" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Sys.chdir tmp;
  let got = Fun.protect ~finally:(fun () -> Sys.chdir home) Build_info.git_describe in
  Sys.rmdir tmp;
  let out = Filename.temp_file "atum_git" ".txt" in
  let expected =
    if Sys.command ("git describe --always --dirty > " ^ Filename.quote out ^ " 2>/dev/null") <> 0
    then "unknown"
    else begin
      let ic = open_in out in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      if String.length line > 0 then line else "unknown"
    end
  in
  Sys.remove out;
  Alcotest.(check string) "git describe of the binary's checkout" expected got

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_validate_default () =
  Alcotest.(check bool) "default valid" true (Params.validate Params.default = Ok ());
  Alcotest.(check bool) "async valid" true (Params.validate Params.default_async = Ok ())

let test_params_validate_rejects () =
  let bad fields =
    match Params.validate fields with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "hc=0" true (bad { Params.default with Params.hc = 0 });
  Alcotest.(check bool) "rwl=0" true (bad { Params.default with Params.rwl = 0 });
  Alcotest.(check bool) "gmax<gmin" true (bad { Params.default with Params.gmax = 2; gmin = 4 });
  Alcotest.(check bool) "split remerges" true
    (bad { Params.default with Params.gmin = 6; gmax = 8 });
  Alcotest.(check bool) "round<=0" true
    (bad { Params.default with Params.round_duration = 0.0 });
  Alcotest.(check bool) "eviction < heartbeat" true
    (bad { Params.default with Params.eviction_timeout = 1.0; heartbeat_period = 10.0 })

let test_params_sizing_monotone () =
  let rwl n = (Params.for_system_size n).Params.rwl in
  Alcotest.(check bool) "bigger systems need longer walks" true (rwl 2000 >= rwl 20)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_grows_exact () =
  let b = Builder.grow ~params:(small_params 1) ~n:30 ~seed:1 () in
  Alcotest.(check int) "exact size" 30 (Atum.size b.Builder.atum);
  Alcotest.(check bool) "consistent" true
    (Atum.check_consistency b.Builder.atum = Ok ())

let test_builder_places_byzantine () =
  let b = Builder.grow ~params:(small_params 2) ~n:20 ~byzantine:3 ~seed:2 () in
  Alcotest.(check int) "three byzantine" 3 (List.length b.Builder.byzantine);
  Alcotest.(check bool) "bootstrap stays correct" true
    (not (List.mem b.Builder.first b.Builder.byzantine));
  Alcotest.(check int) "correct members" 17 (List.length (Builder.correct_members b))

(* ------------------------------------------------------------------ *)
(* Growth (Fig 6 / Fig 13 machinery)                                   *)
(* ------------------------------------------------------------------ *)

let test_growth_reaches_target () =
  let r = Growth.run ~params:(small_params 3) ~target:40 ~seed:3 () in
  Alcotest.(check bool) "reached" true r.Growth.reached_target;
  (match r.Growth.consistency with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("registry inconsistent after growth: " ^ e));
  Alcotest.(check bool) "curve monotone" true
    (let sizes = List.map (fun (p : Growth.point) -> p.Growth.size) r.Growth.curve in
     List.sort compare sizes = sizes)

let test_growth_counts_exchanges () =
  let r = Growth.run ~params:(small_params 4) ~target:40 ~seed:4 () in
  Alcotest.(check bool) "exchanges recorded" true
    (r.Growth.exchanges_completed + r.Growth.exchanges_suppressed > 0);
  Alcotest.(check bool) "completion rate in [0,1]" true
    (r.Growth.completion_rate >= 0.0 && r.Growth.completion_rate <= 1.0)

let test_growth_faster_rate_more_suppression () =
  (* Fig 13's claim: higher join rates suppress more exchanges. *)
  let rate r =
    (Growth.run ~params:(small_params 5) ~join_rate_per_min:r ~target:60 ~seed:5 ())
      .Growth.completion_rate
  in
  let slow = rate 0.05 and fast = rate 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "slow %.3f >= fast %.3f - 0.05" slow fast)
    true
    (slow >= fast -. 0.05)

(* ------------------------------------------------------------------ *)
(* Churn (Fig 7 machinery)                                             *)
(* ------------------------------------------------------------------ *)

let test_churn_probe_gentle_rate_sustained () =
  let b = Builder.grow ~params:(small_params 6) ~n:30 ~seed:6 () in
  let p = Churn.probe b ~rate_per_min:3.0 ~duration:120.0 ~seed:6 in
  Alcotest.(check bool) "gentle churn sustained" true p.Churn.sustained;
  Alcotest.(check bool) "size held" true (p.Churn.size_after >= 27);
  match p.Churn.consistency with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("registry inconsistent after churn: " ^ e)

let test_churn_ladder_returns_probes () =
  let b = Builder.grow ~params:(small_params 7) ~n:24 ~seed:7 () in
  let best, probes = Churn.max_sustained ~rates:[ 2.0; 4.0 ] ~duration:60.0 b ~seed:7 in
  Alcotest.(check bool) "probes recorded" true (List.length probes >= 1);
  Alcotest.(check bool) "best is one of the rates or zero" true
    (List.mem best [ 0.0; 2.0; 4.0 ])

(* ------------------------------------------------------------------ *)
(* Latency experiment (Fig 8 machinery)                                *)
(* ------------------------------------------------------------------ *)

let test_latency_exp_full_delivery () =
  let b = Builder.grow ~params:(small_params 8) ~n:30 ~seed:8 () in
  let r = Latency_exp.run b ~messages:5 ~gap:3.0 ~seed:8 in
  Alcotest.(check int) "every correct node delivers every message"
    r.Latency_exp.expected_deliveries r.Latency_exp.observed_deliveries;
  Alcotest.(check int) "samples" r.Latency_exp.observed_deliveries
    (List.length r.Latency_exp.latencies)

let test_latency_exp_byzantine_no_decay () =
  (* §6.1.3's headline: latency unchanged with a Byzantine minority. *)
  let clean =
    let b = Builder.grow ~params:(small_params 9) ~n:30 ~seed:9 () in
    Latency_exp.run b ~messages:5 ~gap:3.0 ~seed:9
  in
  let dirty =
    let b = Builder.grow ~params:(small_params 9) ~n:33 ~byzantine:3 ~seed:9 () in
    Latency_exp.run b ~messages:5 ~gap:3.0 ~seed:9
  in
  Alcotest.(check bool) "clean full delivery" true (clean.Latency_exp.delivery_fraction > 0.999);
  Alcotest.(check bool) "dirty full delivery to correct nodes" true
    (dirty.Latency_exp.delivery_fraction > 0.999);
  let p90 r = Atum_util.Stats.percentile r.Latency_exp.latencies 90.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p90 %.2f vs %.2f: no decay" (p90 dirty) (p90 clean))
    true
    (p90 dirty <= p90 clean +. 2.0)

let test_latency_cdf_shape () =
  let b = Builder.grow ~params:(small_params 10) ~n:20 ~seed:10 () in
  let r = Latency_exp.run b ~messages:3 ~gap:3.0 ~seed:10 in
  let cdf = Latency_exp.cdf r in
  Alcotest.(check bool) "cdf ends at 1" true
    (match List.rev cdf with (_, f) :: _ -> abs_float (f -. 1.0) < 1e-9 | [] -> false);
  Alcotest.(check bool) "cdf nondecreasing" true
    (let fs = List.map snd cdf in
     List.sort compare fs = fs)

(* ------------------------------------------------------------------ *)
(* AShare / AStream experiments                                        *)
(* ------------------------------------------------------------------ *)

let test_fig9_shape () =
  let rows = Ashare_exp.fig9 ~sizes_mb:[ 2.0; 512.0 ] ~seed:11 () in
  match rows with
  | [ small; big ] ->
    Alcotest.(check bool) "nfs wins small files" true
      (small.Ashare_exp.nfs <= small.Ashare_exp.simple);
    Alcotest.(check bool) "parallel wins big files by >=1.5x" true
      (big.Ashare_exp.nfs /. big.Ashare_exp.parallel >= 1.5);
    Alcotest.(check bool) "per-MB latency amortizes" true
      (big.Ashare_exp.nfs < small.Ashare_exp.nfs)
  | _ -> Alcotest.fail "expected two rows"

let test_fig10_shape () =
  let rows = Ashare_exp.byzantine_reads ~n:24 ~files:39 ~byzantine:5 ~rho:8 ~seed:12 in
  Alcotest.(check bool) "rows produced" true (List.length rows >= 10);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "faulty >= clean at r=%d" r.Ashare_exp.replicas)
        true
        (r.Ashare_exp.faulty_latency_per_mb >= r.Ashare_exp.clean_latency_per_mb -. 1e-6))
    rows

let test_fig12_shape () =
  let rows = Astream_exp.run ~sizes:[ 16; 40 ] ~seed:13 () in
  match rows with
  | [ small; big ] ->
    Alcotest.(check bool) "positive latencies" true
      (small.Astream_exp.single_ms > 0.0 && big.Astream_exp.double_ms > 0.0);
    Alcotest.(check bool) "double <= single (big system)" true
      (big.Astream_exp.double_ms <= big.Astream_exp.single_ms +. 1.0)
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_runs_are_deterministic () =
  (* Every experiment is seeded; the same seed must reproduce the same
     simulation bit for bit. *)
  let run () =
    let r = Growth.run ~params:(small_params 99) ~target:30 ~seed:99 () in
    ( List.map (fun (p : Growth.point) -> (p.Growth.time, p.Growth.size)) r.Growth.curve,
      r.Growth.exchanges_completed,
      r.Growth.exchanges_suppressed,
      r.Growth.duration )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_latency_deterministic () =
  let run () =
    let b = Builder.grow ~params:(small_params 98) ~n:16 ~seed:98 () in
    (Latency_exp.run b ~messages:3 ~gap:3.0 ~seed:98).Latency_exp.latencies
  in
  Alcotest.(check bool) "identical latency samples" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_ablation_forward_policies_tradeoff () =
  let rows = Ablation.forward_policies ~n:60 ~messages:6 ~seed:14 () in
  match rows with
  | [ flood; two; single ] ->
    Alcotest.(check bool) "all deliver" true
      (flood.Ablation.delivery_fraction > 0.999
      && two.Ablation.delivery_fraction > 0.999
      && single.Ablation.delivery_fraction > 0.999);
    Alcotest.(check bool) "flood fastest" true
      (flood.Ablation.p50_latency <= single.Ablation.p50_latency +. 1e-6);
    Alcotest.(check bool) "single cheapest" true
      (single.Ablation.messages_per_broadcast <= flood.Ablation.messages_per_broadcast)
  | _ -> Alcotest.fail "expected three rows"

let test_ablation_shuffling_disperses () =
  (* Statistical at this size: a single seed's draw can go either way,
     so require the direction on a mean over a few seeds. *)
  let mean shuffling =
    let seeds = [ 15; 16; 17 ] in
    List.fold_left
      (fun acc seed ->
        let r = Ablation.join_leave_attack ~n:60 ~attackers:6 ~rounds:8 ~shuffling ~seed () in
        acc +. r.Ablation.concentration)
      0.0 seeds
    /. float_of_int (List.length seeds)
  in
  let on = mean true and off = mean false in
  Alcotest.(check bool)
    (Printf.sprintf "mean concentration on=%.2f <= off=%.2f + slack" on off)
    true
    (on <= off +. 0.15)

(* ------------------------------------------------------------------ *)
(* Bench JSON artifacts                                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_bench_json_deterministic () =
  (* Acceptance gate for the observability pipeline: two same-seed
     quick runs must write byte-identical BENCH_fig6.json (wall time
     is zeroed by ATUM_BENCH_JSON_CANON). *)
  (* This test binary lives in _build/default/test/, the bench harness
     in _build/default/bench/ — resolve it relative to ourselves so the
     test works under both [dune runtest] and [dune exec]. *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bench/main.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "bench executable missing at %s" exe);
  let run dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let cmd =
      Printf.sprintf
        "ATUM_BENCH_SCALE=quick ATUM_BENCH_JSON_CANON=1 ATUM_BENCH_JSON=%s %s fig6 \
         > /dev/null"
        (Filename.quote dir) (Filename.quote exe)
    in
    Alcotest.(check int) ("exit status of " ^ cmd) 0 (Sys.command cmd);
    read_file (Filename.concat dir "BENCH_fig6.json")
  in
  let a = run "bench_json_a" and b = run "bench_json_b" in
  Alcotest.(check bool) "artifact non-trivial" true (String.length a > 200);
  Alcotest.(check bool) "byte-identical across same-seed runs" true (String.equal a b);
  match Atum_util.Json.of_string a with
  | Error e -> Alcotest.failf "artifact is not valid JSON: %s" e
  | Ok j ->
      Alcotest.(check bool) "fig tagged" true
        (Atum_util.Json.member "fig" j = Some (Atum_util.Json.String "fig6"));
      Alcotest.(check bool) "has rows" true (Atum_util.Json.member "rows" j <> None)

(* ------------------------------------------------------------------ *)
(* Analyzer                                                            *)
(* ------------------------------------------------------------------ *)

let test_analyze_of_trace () =
  let b = Builder.grow ~params:(small_params 20) ~trace:true ~monitor:true ~n:20 ~seed:20 () in
  let r = Latency_exp.run b ~messages:4 ~gap:3.0 ~seed:20 in
  Alcotest.(check bool) "full delivery" true (r.Latency_exp.delivery_fraction > 0.999);
  let a =
    Analyze.of_trace (Atum.trace b.Builder.atum) ~metrics:(Atum.metrics b.Builder.atum)
  in
  (* The broadcast-phase events are the newest in the ring, so even if
     the growth phase rotated out, every tree root survives. *)
  Alcotest.(check int) "one tree per broadcast" 4 (List.length a.Analyze.trees);
  Alcotest.(check int) "no orphan bids" 0 a.Analyze.orphan_bids;
  List.iter
    (fun (tr : Analyze.tree) ->
      Alcotest.(check bool)
        (Printf.sprintf "tree %d delivered everywhere" tr.Analyze.bid)
        true
        (tr.Analyze.deliveries = Atum.size b.Builder.atum);
      Alcotest.(check bool) "origin known" true (tr.Analyze.origin >= 0);
      Alcotest.(check bool) "root vgroup known" true (tr.Analyze.root_vg >= 0))
    a.Analyze.trees;
  Alcotest.(check bool) "gossip went beyond the origin vgroup" true
    (List.exists (fun (d, _) -> d >= 1) a.Analyze.hop_hist);
  Alcotest.(check bool) "latency percentiles present" true
    (List.mem_assoc "p50" a.Analyze.latency_p);
  Alcotest.(check bool) "saga stats include joins" true
    (List.exists (fun (s : Analyze.saga_stats) -> s.Analyze.saga = "join") a.Analyze.sagas);
  Alcotest.(check int) "healthy run: no violations" 0 a.Analyze.violations_total;
  (* Violation evidence in the trace must be surfaced even when the
     corresponding metrics counter is gone — Latency_exp cleared the
     metrics above, exactly the situation the merge covers. *)
  Atum_sim.Trace.emit (Atum.trace b.Builder.atum) ~time:0.0
    ~kind:"monitor.violation.vg_oversize" ();
  let a2 =
    Analyze.of_trace (Atum.trace b.Builder.atum) ~metrics:(Atum.metrics b.Builder.atum)
  in
  Alcotest.(check (list (pair string int))) "trace-only violation counted"
    [ ("vg_oversize", 1) ] a2.Analyze.violations

let test_cli_broadcast_then_analyze () =
  (* End-to-end artifact pipeline: [atum-cli broadcast --json] writes
     ATUM_broadcast.json, [atum-cli analyze --json] reconstructs the
     dissemination trees from it with zero invariant violations. *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/atum_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "cli executable missing at %s" exe);
  let dir = "cli_analyze" in
  let sh cmd = Alcotest.(check int) ("exit status of " ^ cmd) 0 (Sys.command cmd) in
  sh
    (Printf.sprintf "%s broadcast -n 24 -m 6 --seed 5 --json --out-dir %s > /dev/null"
       (Filename.quote exe) (Filename.quote dir));
  let artifact = Filename.concat dir "ATUM_broadcast.json" in
  sh
    (Printf.sprintf "%s analyze %s --json --out-dir %s > /dev/null" (Filename.quote exe)
       (Filename.quote artifact) (Filename.quote dir));
  match Atum_util.Json.of_string (read_file (Filename.concat dir "ATUM_analyze.json")) with
  | Error e -> Alcotest.failf "ATUM_analyze.json is not valid JSON: %s" e
  | Ok j ->
      let int_member key =
        match Atum_util.Json.member key j with
        | Some (Atum_util.Json.Int n) -> n
        | _ -> Alcotest.failf "missing int member %s" key
      in
      Alcotest.(check bool) "at least one tree" true (int_member "trees" >= 1);
      Alcotest.(check int) "zero violations" 0 (int_member "violations_total");
      Alcotest.(check bool) "cmd tagged" true
        (Atum_util.Json.member "cmd" j = Some (Atum_util.Json.String "analyze"))

let test_cli_churn_telemetry_and_report () =
  (* Acceptance gate for the telemetry pipeline: a default [churn
     --json] run emits ATUM_timeseries.json with a healthy set of
     gauges, two same-seed runs write it byte-identically (same
     cmdline, same out-dir, so build_info matches too), and [atum-cli
     report] renders it. *)
  let module Json = Atum_util.Json in
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/atum_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "cli executable missing at %s" exe);
  let dir = "cli_telemetry" in
  let sh cmd = Alcotest.(check int) ("exit status of " ^ cmd) 0 (Sys.command cmd) in
  let churn () =
    sh
      (Printf.sprintf "%s churn -n 24 --seed 5 -d 120 --json --out-dir %s > /dev/null"
         (Filename.quote exe) (Filename.quote dir));
    read_file (Filename.concat dir "ATUM_timeseries.json")
  in
  let a = churn () in
  let b = churn () in
  Alcotest.(check bool) "same-seed byte-identical timeseries" true (String.equal a b);
  (match Json.of_string a with
  | Error e -> Alcotest.failf "ATUM_timeseries.json is not valid JSON: %s" e
  | Ok j ->
    Alcotest.(check bool) "schema versioned" true
      (Json.member "schema_version" j <> None);
    Alcotest.(check bool) "build_info present" true (Json.member "build_info" j <> None);
    (match Json.member "timeseries" j with
    | Some ts -> (
      match Json.member "gauges" ts with
      | Some (Json.Obj gauges) ->
        Alcotest.(check bool)
          (Printf.sprintf "%d gauges >= 8" (List.length gauges))
          true
          (List.length gauges >= 8)
      | _ -> Alcotest.fail "timeseries.gauges missing")
    | None -> Alcotest.fail "timeseries section missing");
    match Json.member "profile" j with
    | Some p ->
      Alcotest.(check bool) "profile has labels" true (Json.member "labels" p <> None)
    | None -> Alcotest.fail "profile section missing");
  let out = Filename.concat dir "report.txt" in
  sh
    (Printf.sprintf "%s report %s > %s" (Filename.quote exe)
       (Filename.quote (Filename.concat dir "ATUM_timeseries.json"))
       (Filename.quote out));
  let rendered = read_file out in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names a gauge" true (contains "system.size" rendered);
  Alcotest.(check bool) "report renders sparklines" true (contains "\xe2\x96" rendered);
  Alcotest.(check bool) "report renders the profile table" true
    (contains "engine profile" rendered);
  Alcotest.(check bool) "telemetry task is labeled" true
    (contains "telemetry.sample" rendered)

let () =
  Alcotest.run "workload"
    [
      ( "build_info",
        [ Alcotest.test_case "describes the binary's checkout" `Quick test_build_info_ignores_cwd ] );
      ( "params",
        [
          Alcotest.test_case "default valid" `Quick test_params_validate_default;
          Alcotest.test_case "rejects bad" `Quick test_params_validate_rejects;
          Alcotest.test_case "sizing monotone" `Quick test_params_sizing_monotone;
        ] );
      ( "builder",
        [
          Alcotest.test_case "grows exact" `Slow test_builder_grows_exact;
          Alcotest.test_case "byzantine placement" `Slow test_builder_places_byzantine;
        ] );
      ( "growth",
        [
          Alcotest.test_case "reaches target" `Slow test_growth_reaches_target;
          Alcotest.test_case "counts exchanges" `Slow test_growth_counts_exchanges;
          Alcotest.test_case "rate vs suppression" `Slow test_growth_faster_rate_more_suppression;
        ] );
      ( "churn",
        [
          Alcotest.test_case "gentle sustained" `Slow test_churn_probe_gentle_rate_sustained;
          Alcotest.test_case "ladder" `Slow test_churn_ladder_returns_probes;
        ] );
      ( "latency",
        [
          Alcotest.test_case "full delivery" `Slow test_latency_exp_full_delivery;
          Alcotest.test_case "byzantine no decay" `Slow test_latency_exp_byzantine_no_decay;
          Alcotest.test_case "cdf shape" `Slow test_latency_cdf_shape;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
          Alcotest.test_case "fig10 shape" `Slow test_fig10_shape;
          Alcotest.test_case "fig12 shape" `Slow test_fig12_shape;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "growth deterministic" `Slow test_runs_are_deterministic;
          Alcotest.test_case "latency deterministic" `Slow test_latency_deterministic;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "forward policies" `Slow test_ablation_forward_policies_tradeoff;
          Alcotest.test_case "shuffling disperses" `Slow test_ablation_shuffling_disperses;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "live trace" `Slow test_analyze_of_trace;
          Alcotest.test_case "cli pipeline" `Slow test_cli_broadcast_then_analyze;
          Alcotest.test_case "cli telemetry + report" `Slow
            test_cli_churn_telemetry_and_report;
        ] );
      ( "bench-json",
        [ Alcotest.test_case "same-seed determinism" `Slow test_bench_json_deterministic ] );
    ]
