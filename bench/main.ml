(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6).  Each [figN] function prints the same
   rows/series the paper reports; EXPERIMENTS.md records the
   paper-vs-measured comparison.

   Usage:   dune exec bench/main.exe [-- fig4 fig6 ... micro] [--json] [--out-dir DIR]
            [--trace-cap EVENTS]
   Scale:   ATUM_BENCH_SCALE=quick|default|full  (default: default)
   Trace:   --trace-cap sizes the trace ring; default auto-sizes by
            tier (Trace.capacity_for_scale)

   With [--json] every figure also writes a
   machine-readable BENCH_<fig>.json artifact into the out-dir
   (default _artifacts/, created if missing) carrying the same rows as
   the text output plus seed, scale, build provenance and wall time —
   see the schema note in EXPERIMENTS.md.  All fields except wall_s
   are deterministic; set ATUM_BENCH_JSON_CANON=1 to zero wall_s and
   get byte-identical files across same-seed runs.                      *)

module Params = Atum_core.Params
module Atum = Atum_core.Atum
module W = Atum_workload
module Json = Atum_util.Json

let scale =
  match Sys.getenv_opt "ATUM_BENCH_SCALE" with
  | Some ("quick" | "QUICK") -> `Quick
  | Some ("full" | "FULL") -> `Full
  | _ -> `Default

let scale_name =
  match scale with `Quick -> "quick" | `Default -> "default" | `Full -> "full"

let json_dir = ref None

(* Trace ring sizing for traced benchmarks: --trace-cap flag, else
   auto-size by tier so 100k/1M runs don't wrap the ring within their
   first simulated seconds. *)
let trace_cap_flag = ref 0

let trace_cap_for ~n =
  if !trace_cap_flag > 0 then !trace_cap_flag
  else Atum_sim.Trace.capacity_for_scale ~nodes:n

(* Wall-clock time is the only nondeterministic field in a benchmark
   artifact; zeroing it (ATUM_BENCH_JSON_CANON) makes same-seed runs
   byte-identical, which is what the determinism guard and any
   CI-level BENCH_*.json diffing rely on. *)
let canonical =
  match Sys.getenv_opt "ATUM_BENCH_JSON_CANON" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let emit_json ~fig ~seed ~wall_s ?(extra = []) rows =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let build_info = W.Build_info.current ~seed in
    let wall_s = if canonical then 0.0 else wall_s in
    let doc =
      Atum_sim.Artifact.Bench { fig; scale = scale_name; seed; build_info; wall_s; extra; rows }
    in
    let path = Atum_sim.Artifact.write ~dir (Printf.sprintf "BENCH_%s.json" fig) doc in
    Printf.printf "  [json] wrote %s\n%!" path

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Append figure-specific fields to a row built by a shared helper. *)
let with_fields extra = function
  | Json.Obj fields -> Json.Obj (extra @ fields)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Table 1: system parameters                                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: system parameters (defaults in this reproduction)";
  let entries =
    [ ("sync default", Params.default); ("async default", Params.default_async) ]
    @ List.map
        (fun n -> (Printf.sprintf "sized for N=%d" n, Params.for_system_size n))
        [ 50; 200; 800; 1400 ]
  in
  List.iter
    (fun (label, (p : Params.t)) ->
      Printf.printf "  %-22s hc=%-2d rwl=%-2d gmin=%-2d gmax=%-2d round=%.1fs\n" label
        p.Params.hc p.rwl p.gmin p.gmax p.round_duration)
    entries;
  Printf.printf "  typical ranges (paper): hc 2..12, rwl 4..15, gmin = gmax/2, k 3..7\n%!";
  emit_json ~fig:"table1" ~seed:0 ~wall_s:0.0
    (List.map
       (fun (label, (p : Params.t)) ->
         Json.Obj
           [
             ("label", Json.String label);
             ("hc", Json.Int p.Params.hc);
             ("rwl", Json.Int p.rwl);
             ("gmin", Json.Int p.gmin);
             ("gmax", Json.Int p.gmax);
             ("round_s", Json.Float p.round_duration);
           ])
       entries)

(* ------------------------------------------------------------------ *)
(* Fig 4: configuration guideline                                      *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Fig 4: optimal random-walk length (rwl) per overlay density (hc)";
  let vgroup_counts =
    match scale with
    | `Quick -> [ 8; 32; 128 ]
    | `Default -> [ 8; 32; 128; 512; 2048 ]
    | `Full -> [ 8; 32; 128; 512; 2048; 8192 ]
  in
  let hc_values = [ 2; 4; 6; 8; 10; 12 ] in
  Printf.printf "  %-10s" "vgroups";
  List.iter (fun hc -> Printf.printf " hc=%-3d" hc) hc_values;
  print_newline ();
  let rows, dt =
    wall (fun () -> Atum_overlay.Guideline.figure4 ~vgroup_counts ~hc_values ~seed:42 ())
  in
  List.iter
    (fun (vg, cols) ->
      Printf.printf "  %-10d" vg;
      List.iter
        (fun (_, rwl) ->
          match rwl with
          | Some r -> Printf.printf " %-6d" r
          | None -> Printf.printf " %-6s" "-")
        cols;
      print_newline ())
    rows;
  Printf.printf "  (chi-squared uniformity at 0.99 confidence; %.1fs)\n%!" dt;
  emit_json ~fig:"fig4" ~seed:42 ~wall_s:dt
    (List.map
       (fun (vg, cols) ->
         Json.Obj
           [
             ("vgroups", Json.Int vg);
             ( "optimal_rwl",
               Json.List
                 (List.map
                    (fun (hc, rwl) ->
                      Json.Obj
                        [
                          ("hc", Json.Int hc);
                          ("rwl", match rwl with Some r -> Json.Int r | None -> Json.Null);
                        ])
                    cols) );
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fig 6: growth speed                                                 *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig 6: growth speed (system size over simulated time)";
  let targets =
    match scale with `Quick -> [ 200 ] | `Default -> [ 800; 1400 ] | `Full -> [ 800; 1400 ]
  in
  let protocols =
    match scale with `Quick -> [ Params.Sync ] | _ -> [ Params.Sync; Params.Async ]
  in
  let rows = ref [] in
  let total_wall = ref 0.0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun target ->
          let params = Params.for_system_size ~protocol ~seed:7 target in
          let r, dt =
            wall (fun () ->
                W.Growth.run ~params ~target ~seed:7 ~sample_every:250.0 ())
          in
          total_wall := !total_wall +. dt;
          let proto_name =
            match protocol with Params.Sync -> "SYNC" | Params.Async -> "ASYNC"
          in
          Printf.printf
            "  %-5s target=%d: reached %d in %.0f simulated s; join latency p50=%.1fs p90=%.1fs (wall %.1fs)\n"
            proto_name target r.W.Growth.final_size r.duration r.join_latency_p50
            r.join_latency_p90 dt;
          Printf.printf "    curve (t, size): ";
          List.iter
            (fun (p : W.Growth.point) ->
              Printf.printf "(%.0f, %d) " p.W.Growth.time p.W.Growth.size)
            r.curve;
          Printf.printf "\n%!";
          rows := W.Report.growth_row ~protocol:proto_name ~target r :: !rows)
        targets)
    protocols;
  emit_json ~fig:"fig6" ~seed:7 ~wall_s:!total_wall (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Fig 7: churn tolerance                                              *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Fig 7: maximal tolerated churn (re-joins/minute)";
  let sizes =
    match scale with
    | `Quick -> [ 50; 100 ]
    | `Default -> [ 50; 100; 200 ]
    | `Full -> [ 50; 100; 200; 400; 800 ]
  in
  let configs =
    [
      ("SYNC (rwl=6, hc=8)", fun n -> { (Params.for_system_size n) with Params.rwl = 6; hc = 8 });
      ("SYNC (rwl=11, hc=5)", fun n -> { (Params.for_system_size n) with Params.rwl = 11; hc = 5 });
      ( "ASYNC (guideline)",
        fun n -> Params.for_system_size ~protocol:Params.Async n );
    ]
  in
  let rows = ref [] in
  let total_wall = ref 0.0 in
  List.iter
    (fun (label, mk) ->
      Printf.printf "  %s\n" label;
      List.iter
        (fun n ->
          let params = { (mk n) with Params.seed = 19 + n } in
          let (rate, probes), dt =
            wall (fun () ->
                let built = W.Builder.grow ~params ~n ~seed:(19 + n) () in
                W.Churn.max_sustained built ~seed:(23 + n))
          in
          total_wall := !total_wall +. dt;
          Printf.printf
            "    N=%-4d max sustained %.0f re-joins/min (%.1f%%/min), probes=%d (wall %.1fs)\n%!"
            n rate
            (100.0 *. rate /. float_of_int n)
            (List.length probes) dt;
          rows :=
            Json.Obj
              [
                ("config", Json.String label);
                ("n", Json.Int n);
                ("max_sustained_per_min", Json.Float rate);
                ("pct_per_min", Json.Float (100.0 *. rate /. float_of_int n));
                ("probes", Json.Int (List.length probes));
              ]
            :: !rows)
        sizes)
    configs;
  emit_json ~fig:"fig7" ~seed:19 ~wall_s:!total_wall (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Fig 8: group communication latency                                  *)
(* ------------------------------------------------------------------ *)

let pp_cdf_line label latencies =
  if latencies = [] then Printf.printf "    %-24s (no samples)\n" label
  else begin
    let p q = Atum_util.Stats.percentile latencies q in
    Printf.printf
      "    %-24s n=%-7d p10=%6.2f p50=%6.2f p90=%6.2f p99=%6.2f max=%7.2f\n" label
      (List.length latencies) (p 10.0) (p 50.0) (p 90.0) (p 99.0)
      (List.fold_left max 0.0 latencies)
  end

let cdf_row ~label latencies =
  let pct p =
    if latencies = [] then Json.Null else Json.Float (Atum_util.Stats.percentile latencies p)
  in
  Json.Obj
    [
      ("label", Json.String label);
      ("n", Json.Int (List.length latencies));
      ("p10_s", pct 10.0);
      ("p50_s", pct 50.0);
      ("p90_s", pct 90.0);
      ("p99_s", pct 99.0);
      ( "max_s",
        if latencies = [] then Json.Null else Json.Float (List.fold_left max 0.0 latencies) );
    ]

let fig8 () =
  section "Fig 8: group communication latency CDF (seconds)";
  let messages = match scale with `Quick -> 30 | `Default -> 100 | `Full -> 300 in
  let sizes = match scale with `Quick -> [ 200 ] | _ -> [ 200; 400; 800 ] in
  let rows = ref [] in
  let total_wall = ref 0.0 in
  (* Per-run metrics merged into one aggregate, exported with the
     artifact — the counters behind the CDFs (deliveries, walks,
     suppressed exchanges) summed over every Atum run of the figure. *)
  let agg = Atum_sim.Metrics.create () in
  let run_one label ~protocol ~n ~byz =
    let params =
      { (Params.for_system_size ~protocol n) with Params.seed = 47 + n; round_duration = 1.5 }
    in
    let (built, r), dt =
      wall (fun () ->
          let built = W.Builder.grow ~params ~byzantine:byz ~n:(n + byz) ~seed:(47 + n) () in
          (built, W.Latency_exp.run built ~messages ~gap:2.0 ~seed:(53 + n)))
    in
    total_wall := !total_wall +. dt;
    Atum_sim.Metrics.merge ~into:agg
      (Atum_core.Atum.metrics built.W.Builder.atum);
    pp_cdf_line label r.W.Latency_exp.latencies;
    Printf.printf "      delivery fraction %.4f (wall %.1fs)\n%!" r.delivery_fraction dt;
    let proto_name = match protocol with Params.Sync -> "SYNC" | Params.Async -> "ASYNC" in
    rows :=
      with_fields [ ("protocol", Json.String proto_name) ] (W.Report.latency_row ~label r)
      :: !rows
  in
  Printf.printf "  Atum SYNC (rounds of 1.5s):\n";
  List.iter (fun n -> run_one (Printf.sprintf "N = %d" n) ~protocol:Params.Sync ~n ~byz:0) sizes;
  run_one "N = 850* (50 Byz)" ~protocol:Params.Sync ~n:800 ~byz:50;
  Printf.printf "  Atum ASYNC (WAN):\n";
  List.iter (fun n -> run_one (Printf.sprintf "N = %d" n) ~protocol:Params.Async ~n ~byz:0) sizes;
  run_one "N = 850* (50 Byz)" ~protocol:Params.Async ~n:800 ~byz:50;
  Printf.printf "  Baselines (N = 850):\n";
  let g = Atum_baselines.Gossip.run ~n:850 ~fanout:10 ~seed:3 in
  let gossip_lats = Atum_baselines.Gossip.latencies g ~round_duration:1.5 in
  pp_cdf_line "S.Gossip" gossip_lats;
  rows :=
    with_fields [ ("protocol", Json.String "baseline") ] (cdf_row ~label:"S.Gossip" gossip_lats)
    :: !rows;
  let smr = Atum_baselines.Global_smr.run ~n:850 ~faults:50 ~round_duration:1.5 in
  let smr_lats = Atum_baselines.Global_smr.latencies smr ~n:850 in
  pp_cdf_line "S.SMR (850*, 50 faults)" smr_lats;
  rows :=
    with_fields
      [ ("protocol", Json.String "baseline") ]
      (cdf_row ~label:"S.SMR (850*, 50 faults)" smr_lats)
    :: !rows;
  Printf.printf "%!";
  emit_json ~fig:"fig8" ~seed:47 ~wall_s:!total_wall
    ~extra:
      [
        ("messages", Json.Int messages);
        ("metrics_aggregate", Atum_sim.Artifact.(encode metrics (metrics_of agg)));
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Fig 9: AShare read performance                                      *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Fig 9: AShare read performance (latency per MB, seconds)";
  let rows, dt = wall (fun () -> W.Ashare_exp.fig9 ~seed:61 ()) in
  Printf.printf "  %-10s %-8s %-14s %-16s\n" "size (MB)" "NFS4" "AShare simple" "AShare parallel";
  List.iter
    (fun r ->
      Printf.printf "  %-10.0f %-8.3f %-14.3f %-16.3f\n" r.W.Ashare_exp.size_mb r.nfs r.simple
        r.parallel)
    rows;
  Printf.printf "  (wall %.1fs)\n%!" dt;
  emit_json ~fig:"fig9" ~seed:61 ~wall_s:dt
    (List.map
       (fun (r : W.Ashare_exp.fig9_row) ->
         Json.Obj
           [
             ("size_mb", Json.Float r.W.Ashare_exp.size_mb);
             ("nfs_s_per_mb", Json.Float r.nfs);
             ("simple_s_per_mb", Json.Float r.simple);
             ("parallel_s_per_mb", Json.Float r.parallel);
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* Figs 10 & 11: Byzantine impact on AShare reads                      *)
(* ------------------------------------------------------------------ *)

let fig10_11 () =
  let run ~fig ~n ~files =
    section
      (Printf.sprintf "Fig %d: AShare read latency with Byzantine replicas (%d nodes, %d files)"
         fig n files);
    let rows, dt =
      wall (fun () -> W.Ashare_exp.byzantine_reads ~n ~files ~byzantine:7 ~rho:8 ~seed:67)
    in
    Printf.printf "  %-10s %-22s %-22s\n" "replicas" "all correct (s/MB)" "1-6 faulty (s/MB)";
    List.iter
      (fun r ->
        Printf.printf "  %-10d %-22.3f %-22.3f\n" r.W.Ashare_exp.replicas
          r.clean_latency_per_mb r.faulty_latency_per_mb)
      rows;
    Printf.printf "  (wall %.1fs)\n%!" dt;
    emit_json ~fig:(Printf.sprintf "fig%d" fig) ~seed:67 ~wall_s:dt
      ~extra:[ ("n", Json.Int n); ("files", Json.Int files) ]
      (List.map
         (fun (r : W.Ashare_exp.fig10_row) ->
           Json.Obj
             [
               ("replicas", Json.Int r.W.Ashare_exp.replicas);
               ("clean_s_per_mb", Json.Float r.clean_latency_per_mb);
               ("faulty_s_per_mb", Json.Float r.faulty_latency_per_mb);
             ])
         rows)
  in
  let files = match scale with `Quick -> 65 | `Default -> 260 | `Full -> 520 in
  run ~fig:10 ~n:50 ~files;
  run ~fig:11 ~n:100 ~files

(* ------------------------------------------------------------------ *)
(* Fig 12: AStream latency                                             *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  section "Fig 12: AStream tier-2 latency for a 1 MB/s stream (milliseconds)";
  let rows, dt = wall (fun () -> W.Astream_exp.run ~seed:71 ()) in
  Printf.printf "  %-8s %-16s %-16s %-18s %-18s\n" "N" "Single (model)" "Double (model)"
    "Single (push-pull)" "Double (push-pull)";
  List.iter
    (fun r ->
      Printf.printf "  %-8d %-16.0f %-16.0f %-18.0f %-18.0f\n" r.W.Astream_exp.n r.single_ms
        r.double_ms r.single_sim_ms r.double_sim_ms)
    rows;
  Printf.printf "  (wall %.1fs)\n%!" dt;
  emit_json ~fig:"fig12" ~seed:71 ~wall_s:dt
    (List.map
       (fun (r : W.Astream_exp.row) ->
         Json.Obj
           [
             ("n", Json.Int r.W.Astream_exp.n);
             ("single_model_ms", Json.Float r.single_ms);
             ("double_model_ms", Json.Float r.double_ms);
             ("single_sim_ms", Json.Float r.single_sim_ms);
             ("double_sim_ms", Json.Float r.double_sim_ms);
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fig 13: exchange completion under aggressive growth                 *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig 13: exchange completion rate vs. join rate (growth to N=400)";
  let target = match scale with `Quick -> 150 | _ -> 400 in
  Printf.printf "  %-10s %-12s %-12s %-12s %-10s\n" "join rate" "completed" "suppressed"
    "completion" "time (s)";
  let rows = ref [] in
  let total_wall = ref 0.0 in
  List.iter
    (fun rate ->
      let r, dt =
        wall (fun () ->
            W.Growth.run
              ~params:(Params.for_system_size ~seed:73 target)
              ~join_rate_per_min:rate ~target ~seed:73 ())
      in
      total_wall := !total_wall +. dt;
      Printf.printf "  %-10s %-12d %-12d %-12.3f %-10.0f (wall %.1fs)\n%!"
        (Printf.sprintf "%.0f%%/min" (100.0 *. rate))
        r.W.Growth.exchanges_completed r.exchanges_suppressed r.completion_rate r.duration dt;
      rows :=
        with_fields
          [ ("join_rate_per_min", Json.Float rate) ]
          (W.Report.growth_row ~protocol:"SYNC" ~target r)
        :: !rows)
    [ 0.08; 0.20; 0.24 ];
  emit_json ~fig:"fig13" ~seed:73 ~wall_s:!total_wall (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out                       *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation 1: random-walk shuffling vs. a join-leave attack";
  Printf.printf
    "  an adversary re-joins its nodes to concentrate them in one vgroup;\n    \  'concentration' is the worst per-vgroup Byzantine fraction (0.5 = captured)\n";
  let rows = ref [] in
  let total_wall = ref 0.0 in
  List.iter
    (fun shuffling ->
      let r, dt =
        wall (fun () -> W.Ablation.join_leave_attack ~shuffling ~seed:81 ())
      in
      total_wall := !total_wall +. dt;
      Printf.printf
        "  shuffling %-3s: %.1f%% attackers -> concentration %.2f%s (wall %.1fs)\n%!"
        (if shuffling then "ON" else "OFF")
        (100.0 *. r.W.Ablation.byzantine_fraction)
        r.concentration
        (if r.any_vgroup_captured then "  ** vgroup captured **" else "")
        dt;
      rows :=
        Json.Obj
          [
            ("section", Json.String "join_leave_attack");
            ("shuffling", Json.Bool shuffling);
            ("byzantine_fraction", Json.Float r.W.Ablation.byzantine_fraction);
            ("concentration", Json.Float r.concentration);
            ("any_vgroup_captured", Json.Bool r.any_vgroup_captured);
          ]
        :: !rows)
    [ true; false ];
  section "Ablation 2: forward-callback policies (latency vs. traffic, §3.3.4)";
  let policy_rows, dt = wall (fun () -> W.Ablation.forward_policies ~seed:83 ()) in
  total_wall := !total_wall +. dt;
  Printf.printf "  %-20s %-10s %-12s %-12s\n" "policy" "delivery" "p50 latency" "msgs/bcast";
  List.iter
    (fun r ->
      Printf.printf "  %-20s %-10.3f %-12.2f %-12.0f\n" r.W.Ablation.label
        r.delivery_fraction r.p50_latency r.messages_per_broadcast;
      rows :=
        Json.Obj
          [
            ("section", Json.String "forward_policies");
            ("policy", Json.String r.W.Ablation.label);
            ("delivery_fraction", Json.Float r.delivery_fraction);
            ("p50_latency_s", Json.Float r.p50_latency);
            ("messages_per_broadcast", Json.Float r.messages_per_broadcast);
          ]
        :: !rows)
    policy_rows;
  Printf.printf "  (wall %.1fs)\n%!" dt;
  emit_json ~fig:"ablation" ~seed:81 ~wall_s:!total_wall (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Extension: the DHT alternative of footnote 5                        *)
(* ------------------------------------------------------------------ *)

let dht_bench () =
  section "Extension (footnote 5): Chord DHT vs. AShare's broadcast-replicated index";
  let module Dht = Atum_apps.Dht in
  let rows = ref [] in
  Printf.printf "  Lookup cost scales logarithmically:\n";
  Printf.printf "    %-8s %-12s\n" "N" "mean hops";
  List.iter
    (fun n ->
      let d = Dht.build ~node_ids:(List.init n Fun.id) () in
      let hops = Dht.mean_lookup_hops d ~samples:500 ~seed:3 in
      Printf.printf "    %-8d %-12.2f\n" n hops;
      rows :=
        Json.Obj
          [ ("section", Json.String "hops"); ("n", Json.Int n); ("mean_hops", Json.Float hops) ]
        :: !rows)
    [ 64; 256; 1024; 4096 ];
  Printf.printf
    "  ...but quiet Byzantine routers silently swallow queries (N=512, 4 replicas,\n    \  3 retries), where Atum's broadcast index keeps a full copy at every node:\n";
  Printf.printf "    %-12s %-22s %-22s\n" "byzantine" "DHT lookup success" "broadcast index";
  List.iter
    (fun pct ->
      let n = 512 in
      let d = Dht.build ~node_ids:(List.init n Fun.id) () in
      let rng = Atum_util.Rng.create (100 + pct) in
      let byz =
        Atum_util.Rng.sample_without_replacement rng (n * pct / 100) (List.init n Fun.id)
      in
      List.iter (Dht.mark_byzantine d) byz;
      let success = Dht.lookup_success_rate d ~samples:600 ~seed:7 in
      Printf.printf "    %-12s %-22.3f %-22s\n"
        (Printf.sprintf "%d%%" pct)
        success "1.000 (local read)";
      rows :=
        Json.Obj
          [
            ("section", Json.String "byzantine");
            ("byzantine_pct", Json.Int pct);
            ("dht_lookup_success", Json.Float success);
            ("broadcast_index_success", Json.Float 1.0);
          ]
        :: !rows)
    [ 0; 5; 10; 20; 30 ];
  Printf.printf "  Churn: 20%% of 512 nodes leave between stabilizations:\n";
  let d = Dht.build ~node_ids:(List.init 512 Fun.id) () in
  let rng = Atum_util.Rng.create 11 in
  List.iter (Dht.mark_dead d)
    (Atum_util.Rng.sample_without_replacement rng 102 (List.init 512 Fun.id));
  let churn_row phase d =
    let success = Dht.lookup_success_rate d ~samples:500 ~seed:13 in
    let hops = Dht.mean_lookup_hops d ~samples:500 ~seed:13 in
    Printf.printf "    %s: success %.3f, mean hops %.2f\n%!" phase success hops;
    rows :=
      Json.Obj
        [
          ("section", Json.String "churn");
          ("phase", Json.String phase);
          ("lookup_success", Json.Float success);
          ("mean_hops", Json.Float hops);
        ]
      :: !rows
  in
  churn_row "before stabilization" d;
  churn_row "after stabilization " (Dht.rebuild d);
  emit_json ~fig:"dht" ~seed:3 ~wall_s:0.0 (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Scale trajectory: growth + broadcast up to a million nodes          *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: an engine benchmark.  Each tier builds an
   N-node system with [System.build_direct] (dense arenas, lazy SMR),
   broadcasts once from node 0, and runs until every node delivered —
   measuring nodes/sec grown, engine events/sec, deliveries/sec, and
   peak live heap words.

   Wall-derived fields (rates, wall seconds) are zeroed under
   ATUM_BENCH_JSON_CANON so same-seed artifacts stay byte-identical;
   the deterministic fields (event counts, deliveries, vgroups, peak
   words) still diff meaningfully. *)

let scale_bench () =
  section "Scale: growth + broadcast trajectory (dense arenas, batched gossip)";
  let module System = Atum_core.System in
  let module Engine = Atum_sim.Engine in
  let seed = 97 in
  let tiers =
    match scale with
    | `Quick -> [ 1_000; 10_000 ]
    | `Default -> [ 1_000; 10_000; 100_000 ]
    | `Full -> [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let wall_field dt = if canonical then 0.0 else dt in
  let rate num dt = if canonical || dt <= 0.0 then 0.0 else float_of_int num /. dt in
  let run_one n =
    Gc.compact ();
    let params = Params.for_system_size ~seed n in
    let sys = System.create ~trace_capacity:(trace_cap_for ~n) params in
    ignore (System.attach_telemetry sys);
    let t0 = Unix.gettimeofday () in
    let ids = System.build_direct sys ~nodes:n () in
    let grow_wall = Unix.gettimeofday () -. t0 in
    let metrics = System.metrics sys in
    let delivered () = Atum_sim.Metrics.counter metrics "broadcast.delivered" in
    let ev0 = Engine.events_processed (System.engine sys) in
    let t1 = Unix.gettimeofday () in
    (* Run the broadcast to saturation in sim-time slices; two slices
       in a row without progress abandons the tier instead of hanging
       it. *)
    ignore (System.broadcast sys ~from:(List.hd ids) "scale-probe");
    let stalls = ref 0 in
    while delivered () < n && !stalls < 2 do
      let before = delivered () in
      System.run_for sys 120.0;
      if delivered () = before then incr stalls else stalls := 0
    done;
    let bcast_wall = Unix.gettimeofday () -. t1 in
    let events = Engine.events_processed (System.engine sys) - ev0 in
    let deliveries = delivered () in
    let peak_words = (Gc.stat ()).Gc.live_words in
    let row =
      Json.Obj
        [
          ("n", Json.Int n);
          ("vgroups", Json.Int (System.vgroup_count sys));
          ("delivered", Json.Int deliveries);
          ("delivered_all", Json.Bool (deliveries >= n));
          ("engine_events", Json.Int events);
          ("grow_wall_s", Json.Float (wall_field grow_wall));
          ("nodes_per_sec", Json.Float (rate n grow_wall));
          ("bcast_wall_s", Json.Float (wall_field bcast_wall));
          ("events_per_sec", Json.Float (rate events bcast_wall));
          ("deliveries_per_sec", Json.Float (rate deliveries bcast_wall));
          ("peak_live_words", Json.Int (if canonical then 0 else peak_words));
        ]
    in
    Printf.printf
      "  N=%-9d grow %8.2fs (%9.0f nodes/s)  bcast %8.2fs (%9.0f ev/s, %9.0f deliv/s)  %d/%d delivered, %.1fM words\n%!"
      n grow_wall
      (if grow_wall > 0.0 then float_of_int n /. grow_wall else 0.0)
      bcast_wall
      (if bcast_wall > 0.0 then float_of_int events /. bcast_wall else 0.0)
      (if bcast_wall > 0.0 then float_of_int deliveries /. bcast_wall else 0.0)
      deliveries n
      (float_of_int peak_words /. 1e6);
    row
  in
  let t_all = Unix.gettimeofday () in
  let rows = List.map run_one tiers in
  emit_json ~fig:"scale" ~seed ~wall_s:(Unix.gettimeofday () -. t_all) rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel, ns/op)";
  (* No JSON artifact: wall-clock estimates are inherently
     nondeterministic and would defeat the BENCH_*.json diff workflow. *)
  let open Bechamel in
  let data_1k = String.make 1024 'x' in
  let rng = Atum_util.Rng.create 1 in
  let hg = Atum_overlay.Hgraph.create ~cycles:6 rng (List.init 128 Fun.id) in
  let counts = Array.init 128 (fun i -> 40 + (i mod 7)) in
  let kr = Atum_crypto.Signature.create_keyring ~seed:1 in
  Atum_crypto.Signature.register kr "node-0";
  let tests =
    Test.make_grouped ~name:"atum"
      [
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Atum_crypto.Sha256.digest data_1k));
        Test.make ~name:"hmac-64B" (Staged.stage (fun () -> Atum_crypto.Hmac.mac ~key:"k" "datadatadatadata"));
        Test.make ~name:"sign" (Staged.stage (fun () -> Atum_crypto.Signature.sign kr ~signer:"node-0" "msg"));
        Test.make ~name:"walk-step" (Staged.stage (fun () -> Atum_overlay.Random_walk.step_fast hg rng 0));
        Test.make ~name:"chi2-128cells" (Staged.stage (fun () -> Atum_util.Stats.chi2_uniform_test ~confidence:0.99 counts));
        Test.make ~name:"rng-bits64" (Staged.stage (fun () -> Atum_util.Rng.bits64 rng));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let r = Hashtbl.find results name in
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Printf.printf "  %-24s %12.1f ns/op\n" name est
      | _ -> Printf.printf "  %-24s (no estimate)\n" name)
    (List.sort compare names);
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)

let all_figs =
  [
    ("table1", table1);
    ("fig4", fig4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10_11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("ablation", ablation);
    ("dht", dht_bench);
    ("scale", scale_bench);
    ("micro", micro);
  ]

let () =
  (* Strip --json / --out-dir DIR; whatever remains names the figures
     to run. *)
  let json_flag = ref false in
  let out_dir = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
      json_flag := true;
      parse acc rest
    | "--out-dir" :: dir :: rest ->
      out_dir := Some dir;
      parse acc rest
    | "--out-dir" :: [] ->
      prerr_endline "--out-dir requires a directory argument";
      exit 2
    | "--trace-cap" :: cap :: rest -> (
      match int_of_string_opt cap with
      | Some c when c > 0 ->
        trace_cap_flag := c;
        parse acc rest
      | _ ->
        prerr_endline "--trace-cap requires a positive integer";
        exit 2)
    | "--trace-cap" :: [] ->
      prerr_endline "--trace-cap requires a positive integer";
      exit 2
    | arg :: rest -> parse (arg :: acc) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested = if names = [] then List.map fst all_figs else names in
  if !json_flag then json_dir := Some (Option.value !out_dir ~default:"_artifacts");
  Printf.printf "Atum benchmark harness — scale=%s\n" scale_name;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_figs with
      | Some f -> f ()
      | None ->
        (match name with
        | "fig11" -> () (* generated together with fig10 *)
        | _ -> Printf.printf "unknown figure: %s\n" name))
    requested;
  Printf.printf "\nTotal wall time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
