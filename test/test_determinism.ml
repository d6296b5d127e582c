(* Same-seed determinism acceptance test (the property the atum-lint
   rules defend): two in-process runs of the same churn workload with
   one seed must produce byte-identical structured traces and metric
   snapshots.  Any wall-clock read, global-Random draw or
   bucket-order-dependent traversal on an observable path breaks
   this. *)

module Atum = Atum_core.Atum
module Json = Atum_util.Json
module W = Atum_workload
module A = Atum_sim.Artifact

let churn_run seed =
  let built = W.Builder.grow ~trace:true ~n:24 ~seed () in
  let probe = W.Churn.probe built ~rate_per_min:6.0 ~duration:120.0 ~seed:(seed + 7) in
  let atum = built.W.Builder.atum in
  ( probe,
    Json.to_string (A.encode A.metrics (A.metrics_of (Atum.metrics atum))),
    Json.to_string (A.encode A.trace (A.trace_of (Atum.trace atum))) )

let test_churn_same_seed () =
  let p1, m1, t1 = churn_run 42 in
  let p2, m2, t2 = churn_run 42 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 1000);
  Alcotest.(check int) "joins started agree" p1.W.Churn.joins_started p2.W.Churn.joins_started;
  Alcotest.(check int) "joins completed agree" p1.W.Churn.joins_completed
    p2.W.Churn.joins_completed;
  Alcotest.(check int) "size after agrees" p1.W.Churn.size_after p2.W.Churn.size_after;
  Alcotest.(check bool) "metrics byte-identical" true (String.equal m1 m2);
  Alcotest.(check bool) "trace byte-identical" true (String.equal t1 t2)

let test_telemetry_same_seed () =
  (* The telemetry contract: gauge sampling only reads state, so two
     same-seed runs export byte-identical ATUM_timeseries payloads
     (series AND engine profile — ATUM_PROF_WALL is unset here, so
     wall self-times are identically zero). *)
  let run seed =
    let built = W.Builder.grow ~telemetry_period:10.0 ~n:24 ~seed () in
    ignore (W.Churn.probe built ~rate_per_min:6.0 ~duration:120.0 ~seed:(seed + 7));
    let atum = built.W.Builder.atum in
    match Atum.telemetry atum with
    | None -> Alcotest.fail "Builder.grow should attach telemetry by default"
    | Some tel ->
      ( Json.to_string (A.encode A.telemetry (A.telemetry_of tel)),
        Atum_sim.Telemetry.to_csv tel,
        Json.to_string (A.encode A.profile (A.profile_of (Atum.engine atum))) )
  in
  let j1, c1, p1 = run 42 in
  let j2, c2, p2 = run 42 in
  Alcotest.(check bool) "timeseries non-trivial" true (String.length j1 > 500);
  Alcotest.(check bool) "timeseries byte-identical" true (String.equal j1 j2);
  Alcotest.(check bool) "csv byte-identical" true (String.equal c1 c2);
  Alcotest.(check bool) "engine profile byte-identical" true (String.equal p1 p2);
  let j3, _, _ = run 43 in
  Alcotest.(check bool) "different seed diverges" false (String.equal j1 j3)

let chaos_run seed =
  (* The chaos pipeline draws on every moving part at once — fault
     tasks, adversary drivers, convergence polling — so its byte
     identity is the strongest determinism statement the repo makes. *)
  let built = W.Builder.grow ~trace:true ~n:24 ~seed () in
  let r = W.Resilience.run ~messages_per_phase:4 ~attackers:2 ~drain:60.0 built ~seed () in
  let atum = built.W.Builder.atum in
  ( Json.to_string (A.encode A.resilience r),
    Json.to_string (A.encode A.metrics (A.metrics_of (Atum.metrics atum))),
    Json.to_string (A.encode A.trace (A.trace_of (Atum.trace atum))) )

let test_chaos_same_seed () =
  let r1, m1, t1 = chaos_run 42 in
  let r2, m2, t2 = chaos_run 42 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 1000);
  Alcotest.(check bool) "resilience byte-identical" true (String.equal r1 r2);
  Alcotest.(check bool) "metrics byte-identical" true (String.equal m1 m2);
  Alcotest.(check bool) "trace byte-identical" true (String.equal t1 t2);
  let r3, _, _ = chaos_run 43 in
  Alcotest.(check bool) "different seed diverges" false (String.equal r1 r3)

let test_churn_seed_sensitivity () =
  (* Sanity: the equality above is not vacuous — a different seed must
     visibly change the run. *)
  let _, m1, t1 = churn_run 42 in
  let _, m2, t2 = churn_run 43 in
  Alcotest.(check bool) "different seeds diverge" false
    (String.equal m1 m2 && String.equal t1 t2)

let () =
  Alcotest.run "determinism"
    [
      ( "churn",
        [
          Alcotest.test_case "same-seed byte-identical" `Slow test_churn_same_seed;
          Alcotest.test_case "telemetry byte-identical" `Slow test_telemetry_same_seed;
          Alcotest.test_case "chaos byte-identical" `Slow test_chaos_same_seed;
          Alcotest.test_case "seed sensitivity" `Slow test_churn_seed_sensitivity;
        ] );
    ]
