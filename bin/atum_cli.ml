(* atum-cli: drive Atum deployments from the command line.

   Subcommands:
     grow       grow a deployment and report overlay statistics
     broadcast  measure broadcast latency on a fresh deployment
     churn      probe a churn rate for sustainability
     guideline  print the optimal rwl for a (vgroups, hc) pair
     simulate   free-run a deployment with churn and broadcasts
     chaos      run the fault-injection + recovery-verification experiment
     analyze    reconstruct causality from an ATUM_*.json artifact
     export-trace  convert a traced artifact to Chrome trace_event JSON (Perfetto)
     compare    diff two artifacts metric by metric, exit non-zero on regression
     report     render a run, timeseries, resilience or postmortem artifact *)

open Cmdliner

module Atum = Atum_core.Atum
module Params = Atum_core.Params
module W = Atum_workload
module Json = Atum_util.Json
module A = Atum_sim.Artifact

let protocol_conv =
  let parse = function
    | "sync" -> Ok Params.Sync
    | "async" -> Ok Params.Async
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S (sync|async)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt (match p with Params.Sync -> "sync" | Params.Async -> "async")
  in
  Arg.conv (parse, print)

let nodes_arg =
  Arg.(value & opt int 50 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Target system size.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Also write machine-readable artifacts into the --out-dir: \
           ATUM_$(i,CMD).json (run parameters, a metrics snapshot and the \
           structured event trace) and ATUM_timeseries.json (telemetry gauge \
           series plus the engine profile).  Same JSON dialect as the bench \
           harness's BENCH_*.json files (see EXPERIMENTS.md).")

let out_dir_arg =
  Arg.(
    value
    & opt string "_artifacts"
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Directory for --json artifacts; created if missing.")

let trace_cap_arg =
  Arg.(
    value & opt int 0
    & info [ "trace-cap" ] ~docv:"EVENTS"
        ~doc:
          "Trace ring capacity in events.  0 (the default) auto-sizes by system \
           scale (65536 up to 10k nodes, then 131072/524288/1048576 at the \
           10k/100k/1M tiers).")

let trace_sample_arg =
  Arg.(
    value & opt float 1.0
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Fraction of hot trace kinds (bcast.hop, net.*) to record, in [0,1].  \
           Sampling is deterministic by correlation id, so an admitted broadcast \
           keeps its whole hop lineage; rare kinds (sagas, violations, faults) \
           always record.")

let dump_arg =
  Arg.(
    value & flag
    & info [ "dump-on-violation" ]
        ~doc:
          "Arm the flight recorder: the first monitor violation (or an unhealed \
           fault span in chaos) dumps ATUM_postmortem.json — last trace events, \
           telemetry rows, engine profile, metrics and the trigger — into the \
           --out-dir.")

(* An explicit --trace-cap, else auto-sizing by scale. *)
let resolve_trace_cap ~flag ~n =
  if flag > 0 then flag else Atum_sim.Trace.capacity_for_scale ~nodes:n

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Every file-reading subcommand reports an unreadable or malformed
   FILE the same way: "<cmd>: <file>: <error>" on stderr, then exits
   with [code] (compare uses 2, as a usage error). *)
let or_exit ?(code = 1) cmd file = function
  | Ok x -> x
  | Error e ->
    Printf.eprintf "%s: %s: %s\n" cmd file e;
    exit code

(* Provenance first, then the command-specific summary, then the full
   observability payload; telemetry runs also get ATUM_timeseries.json. *)
let write_json_artifact ?resilience ~dir ~cmd ~seed atum summary =
  let header = { A.cmd; seed; build_info = W.Build_info.current ~seed } in
  let profile = A.profile_of (Atum.engine atum) in
  let wrote name doc = Printf.printf "json             : wrote %s\n" (A.write ~dir name doc) in
  wrote (Printf.sprintf "ATUM_%s.json" cmd)
    (A.Run
       {
         header;
         summary;
         resilience;
         metrics = A.metrics_of (Atum.metrics atum);
         trace = A.trace_of (Atum.trace atum);
         profile;
       });
  Option.iter
    (fun tel ->
      wrote "ATUM_timeseries.json"
        (A.Timeseries { header; telemetry = A.telemetry_of tel; profile }))
    (Atum.telemetry atum)

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Params.Sync
    & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"SMR protocol: sync or async.")

(* [--json] runs carry the full observability payload, so they also
   get the online invariant monitor: its monitor.violation.* counters
   land in the metrics snapshot the analyzer reads.  Telemetry is on
   by default in Builder.grow, so every run has gauge series. *)
let build ?(trace = false) ?trace_cap ?sample_rate ?flight_dir ~protocol ~n ~seed
    ~byzantine () =
  let params = { (Params.for_system_size ~protocol n) with Params.seed } in
  let trace_capacity = resolve_trace_cap ~flag:(Option.value ~default:0 trace_cap) ~n in
  W.Builder.grow ~params ~trace ~trace_capacity ?sample_rate ~monitor:trace ?flight_dir
    ~byzantine ~n:(n + byzantine) ~seed ()

let report_postmortem (built : W.Builder.built) =
  match built.W.Builder.flight with
  | Some fl -> (
    match Atum_sim.Flight.last_path fl with
    | Some path -> Printf.printf "postmortem       : wrote %s\n" path
    | None -> ())
  | None -> ()

let report_build built =
  let atum = built.W.Builder.atum in
  let sizes = Atum.vgroup_sizes atum in
  Printf.printf "system size      : %d\n" (Atum.size atum);
  Printf.printf "vgroups          : %d (sizes %s)\n" (Atum.vgroup_count atum)
    (String.concat ", " (List.map string_of_int (List.sort compare sizes)));
  Printf.printf "overlay          : %s\n"
    (match Atum.check_overlay atum with Ok () -> "consistent" | Error e -> e);
  Printf.printf "registry         : %s\n"
    (match Atum.check_consistency atum with Ok () -> "consistent" | Error e -> e);
  Printf.printf "messages sent    : %d (%.1f MB)\n" (Atum.messages_sent atum)
    (float_of_int (Atum.bytes_sent atum) /. 1_048_576.0);
  Printf.printf "simulated time   : %.0f s\n" (Atum.now atum)

let grow_cmd =
  let run protocol n seed json out_dir trace_cap sample dump =
    let built =
      build ~trace:json ~trace_cap ~sample_rate:sample
        ?flight_dir:(if dump then Some out_dir else None)
        ~protocol ~n ~seed ~byzantine:0 ()
    in
    report_build built;
    let atum = built.W.Builder.atum in
    let m = Atum.metrics atum in
    List.iter
      (fun c -> Printf.printf "%-17s: %d\n" c (Atum_sim.Metrics.counter m c))
      [ "join.completed"; "vgroup.split"; "vgroup.merge"; "exchange.completed";
        "exchange.suppressed"; "walk.completed" ];
    if json then
      write_json_artifact ~dir:out_dir ~cmd:"grow" ~seed atum
        [
          ("n", Json.Int n);
          ("size", Json.Int (Atum.size atum));
          ("vgroups", Json.Int (Atum.vgroup_count atum));
          ("messages_sent", Json.Int (Atum.messages_sent atum));
          ("bytes_sent", Json.Int (Atum.bytes_sent atum));
          ("sim_time_s", Json.Float (Atum.now atum));
        ];
    report_postmortem built
  in
  Cmd.v
    (Cmd.info "grow" ~doc:"Grow a deployment and report overlay statistics.")
    Term.(
      const run $ protocol_arg $ nodes_arg $ seed_arg $ json_arg $ out_dir_arg
      $ trace_cap_arg $ trace_sample_arg $ dump_arg)

let broadcast_cmd =
  let messages_arg =
    Arg.(value & opt int 20 & info [ "m"; "messages" ] ~docv:"M" ~doc:"Messages to send.")
  in
  let byz_arg =
    Arg.(value & opt int 0 & info [ "byzantine" ] ~docv:"B" ~doc:"Byzantine nodes to add.")
  in
  let run protocol n seed messages byzantine json out_dir trace_cap sample dump =
    let built =
      build ~trace:json ~trace_cap ~sample_rate:sample
        ?flight_dir:(if dump then Some out_dir else None)
        ~protocol ~n ~seed ~byzantine ()
    in
    let r = W.Latency_exp.run built ~messages ~gap:2.0 ~seed in
    let p q = Atum_util.Stats.percentile r.W.Latency_exp.latencies q in
    Printf.printf "deliveries       : %d/%d (%.2f%%)\n" r.W.Latency_exp.observed_deliveries
      r.expected_deliveries (100.0 *. r.delivery_fraction);
    Printf.printf "latency (s)      : p10=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n" (p 10.0)
      (p 50.0) (p 90.0) (p 99.0)
      (List.fold_left max 0.0 r.latencies);
    if json then
      write_json_artifact ~dir:out_dir ~cmd:"broadcast" ~seed built.W.Builder.atum
        [
          ("n", Json.Int n);
          ("byzantine", Json.Int byzantine);
          ("messages", Json.Int messages);
          ("latency", W.Report.latency_row ~label:"broadcast" r);
        ];
    report_postmortem built
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Measure broadcast latency on a fresh deployment.")
    Term.(
      const run $ protocol_arg $ nodes_arg $ seed_arg $ messages_arg $ byz_arg $ json_arg
      $ out_dir_arg $ trace_cap_arg $ trace_sample_arg $ dump_arg)

let churn_cmd =
  let rate_arg =
    Arg.(
      value & opt float 10.0
      & info [ "r"; "rate" ] ~docv:"RATE" ~doc:"Re-joins per simulated minute.")
  in
  let duration_arg =
    Arg.(
      value & opt float 180.0
      & info [ "d"; "duration" ] ~docv:"SEC" ~doc:"Churn duration in simulated seconds.")
  in
  let run protocol n seed rate duration json out_dir =
    let built = build ~trace:json ~protocol ~n ~seed ~byzantine:0 () in
    let p = W.Churn.probe built ~rate_per_min:rate ~duration ~seed in
    Printf.printf "rate             : %.1f re-joins/min (%.1f%% of N)\n" rate
      (100.0 *. rate /. float_of_int n);
    Printf.printf "joins            : %d started, %d completed\n" p.W.Churn.joins_started
      p.joins_completed;
    Printf.printf "size             : %d -> %d\n" p.size_before p.size_after;
    Printf.printf "verdict          : %s\n" (if p.sustained then "SUSTAINED" else "NOT sustained");
    if json then
      write_json_artifact ~dir:out_dir ~cmd:"churn" ~seed built.W.Builder.atum
        [
          ("n", Json.Int n);
          ("rate_per_min", Json.Float rate);
          ("duration_s", Json.Float duration);
          ("joins_started", Json.Int p.W.Churn.joins_started);
          ("joins_completed", Json.Int p.joins_completed);
          ("size_before", Json.Int p.size_before);
          ("size_after", Json.Int p.size_after);
          ("sustained", Json.Bool p.sustained);
        ]
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Probe a churn rate for sustainability.")
    Term.(
      const run $ protocol_arg $ nodes_arg $ seed_arg $ rate_arg $ duration_arg $ json_arg
      $ out_dir_arg)

let guideline_cmd =
  let vgroups_arg =
    Arg.(value & opt int 128 & info [ "vgroups" ] ~docv:"V" ~doc:"Number of vgroups.")
  in
  let hc_arg =
    Arg.(value & opt int 6 & info [ "hc" ] ~docv:"HC" ~doc:"Number of H-graph cycles.")
  in
  let run vgroups hc seed =
    match Atum_overlay.Guideline.optimal_rwl ~vgroups ~hc ~seed () with
    | Some rwl -> Printf.printf "optimal rwl for %d vgroups at hc=%d: %d\n" vgroups hc rwl
    | None -> Printf.printf "no walk length up to the search bound passes the chi2 test\n"
  in
  Cmd.v
    (Cmd.info "guideline" ~doc:"Optimal random-walk length for a configuration (Fig 4).")
    Term.(const run $ vgroups_arg $ hc_arg $ seed_arg)

let simulate_cmd =
  let minutes_arg =
    Arg.(value & opt float 10.0 & info [ "minutes" ] ~docv:"MIN" ~doc:"Simulated minutes.")
  in
  let run protocol n seed minutes json out_dir trace_cap sample dump =
    let built =
      build ~trace:json ~trace_cap ~sample_rate:sample
        ?flight_dir:(if dump then Some out_dir else None)
        ~protocol ~n ~seed ~byzantine:0 ()
    in
    let atum = built.W.Builder.atum in
    Atum.start_heartbeats atum;
    let rng = Atum_util.Rng.create seed in
    let delivered = ref 0 in
    Atum.on_deliver atum (fun _ ~bid:_ ~origin:_ _ -> incr delivered);
    for minute = 1 to int_of_float minutes do
      (* light churn plus one broadcast per minute *)
      let members = W.Builder.correct_members built in
      (match members with
      | from :: _ -> ignore (Atum.broadcast atum ~from (Printf.sprintf "minute-%d" minute))
      | [] -> ());
      let victims = List.filter (fun m -> m <> built.W.Builder.first) members in
      if victims <> [] && Atum_util.Rng.bool rng then begin
        Atum.leave atum (Atum_util.Rng.pick rng victims);
        ignore (Atum.join atum ~contact:built.W.Builder.first ())
      end;
      Atum.run_for atum 60.0;
      Printf.printf "t=%3.0f min  size=%-4d vgroups=%-3d deliveries=%d\n"
        (Atum.now atum /. 60.0) (Atum.size atum) (Atum.vgroup_count atum) !delivered
    done;
    report_build built;
    if json then
      write_json_artifact ~dir:out_dir ~cmd:"simulate" ~seed atum
        [
          ("n", Json.Int n);
          ("minutes", Json.Float minutes);
          ("deliveries", Json.Int !delivered);
          ("size", Json.Int (Atum.size atum));
          ("vgroups", Json.Int (Atum.vgroup_count atum));
          ("sim_time_s", Json.Float (Atum.now atum));
        ];
    report_postmortem built
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Free-run a deployment with churn and broadcasts.")
    Term.(
      const run $ protocol_arg $ nodes_arg $ seed_arg $ minutes_arg $ json_arg $ out_dir_arg
      $ trace_cap_arg $ trace_sample_arg $ dump_arg)

let chaos_cmd =
  let attackers_arg =
    Arg.(
      value & opt int 3
      & info [ "attackers" ] ~docv:"A"
          ~doc:
            "Byzantine adversaries to spawn: each joins with the Target_vgroup \
             strategy (hunt the largest vgroup, then equivocate from inside it).")
  in
  let messages_arg =
    Arg.(
      value & opt int 10
      & info [ "m"; "messages" ] ~docv:"M" ~doc:"Broadcasts per phase (before/after).")
  in
  let restart_arg =
    Arg.(
      value & flag
      & info [ "restart" ]
          ~doc:
            "Durability scenario: attach a write-ahead-logged store and cold-restart \
             the fault victims instead of crash/recover — each comes back through \
             snapshot + WAL replay, rejoin and catch-up, measured as time-to-rejoin / \
             time-to-catch-up.")
  in
  let corrupt_log_arg =
    Arg.(
      value & flag
      & info [ "corrupt-log" ]
          ~doc:
            "With the restart scenario: flip one byte in the first victim's WAL while \
             it is down, forcing its restart into the wipe-and-fresh-join fallback \
             (implies --restart).")
  in
  let run protocol n seed attackers messages restart corrupt_log json out_dir trace_cap
      sample dump =
    (* Resilience attaches its own monitor (the convergence checker
       polls its sweeps), so build without one; trace only with --json
       to keep the default run light. *)
    let params = { (Params.for_system_size ~protocol n) with Params.seed } in
    let built =
      W.Builder.grow ~params ~trace:json
        ~trace_capacity:(resolve_trace_cap ~flag:trace_cap ~n)
        ~sample_rate:sample ~monitor:false ~n ~seed ()
    in
    let atum = built.W.Builder.atum in
    let r =
      W.Resilience.run ~messages_per_phase:messages ~attackers
        ?flight_dir:(if dump then Some out_dir else None)
        ~restart:(restart || corrupt_log) ~corrupt_log built ~seed ()
    in
    Format.printf "%a" W.Report.pp_resilience r;
    Option.iter
      (fun name -> Printf.printf "postmortem       : wrote %s\n" (Filename.concat out_dir name))
      r.postmortem;
    if json then write_json_artifact ~resilience:r ~dir:out_dir ~cmd:"resilience" ~seed atum []
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos experiment: scripted partition + crash/recover faults and \
          targeted equivocating adversaries against a steady broadcast workload, with \
          recovery verified by polling registry consistency and the invariant monitor \
          after each heal.  With --json, writes ATUM_resilience.json.")
    Term.(
      const run $ protocol_arg $ nodes_arg $ seed_arg $ attackers_arg $ messages_arg
      $ restart_arg $ corrupt_log_arg $ json_arg $ out_dir_arg $ trace_cap_arg
      $ trace_sample_arg $ dump_arg)

let analyze_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"An ATUM_*.json artifact written by a subcommand run with --json.")
  in
  let run file json out_dir =
    let r = or_exit "analyze" file (Result.bind (A.load file) W.Analyze.of_artifact) in
    Format.printf "@[<v>%a@]@." W.Analyze.pp r;
    if json then begin
      let analysis =
        match W.Analyze.to_json r with Json.Obj fields -> fields | j -> [ ("analysis", j) ]
      in
      let build_info = W.Build_info.current ~seed:0 in
      let doc = A.Analysis { source = file; build_info; analysis } in
      let path = A.write ~dir:out_dir "ATUM_analyze.json" doc in
      Printf.printf "json             : wrote %s\n" path
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct per-broadcast dissemination trees, saga durations and the \
          invariant-violation summary from an ATUM_*.json trace artifact.")
    Term.(const run $ file_arg $ json_arg $ out_dir_arg)

let export_trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A traced ATUM_*.json artifact (run with --json) or an \
             ATUM_postmortem.json flight-recorder dump.")
  in
  let run file out_dir =
    let doc = or_exit "export-trace" file (Result.bind (A.load file) W.Perfetto.of_artifact) in
    mkdir_p out_dir;
    let path = W.Perfetto.write ~dir:out_dir ~source:file doc in
    let events =
      match Json.member "traceEvents" doc with Some (Json.List evs) -> List.length evs | _ -> 0
    in
    Printf.printf "export-trace     : wrote %s (%d events)\n" path events;
    Printf.printf "open in https://ui.perfetto.dev or chrome://tracing (Load button)\n"
  in
  Cmd.v
    (Cmd.info "export-trace"
       ~doc:
         "Convert a traced artifact into Chrome trace_event JSON loadable by \
          Perfetto (ui.perfetto.dev) or chrome://tracing: saga spans, broadcast \
          hop lineage, fault spans (unhealed ones tagged) and the per-label \
          engine profile, on simulated-time microsecond timestamps.")
    Term.(const run $ file_arg $ out_dir_arg)

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline artifact (BENCH_*.json or ATUM_*.json).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate artifact to compare against the baseline.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 10.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Relative change (percent) beyond which a directional metric counts as a \
             regression or improvement.")
  in
  let run old_file new_file threshold json out_dir =
    if threshold < 0.0 then begin
      Printf.eprintf "compare: threshold must be non-negative\n";
      exit 2
    end;
    (* Any version: BENCH_ rows differ per figure and a baseline may
       predate the current schema, so compare reads plain JSON. *)
    let old_json = or_exit ~code:2 "compare" old_file (A.read_json old_file) in
    let new_json = or_exit ~code:2 "compare" new_file (A.read_json new_file) in
    let r = W.Compare.run ~threshold:(threshold /. 100.0) ~old_json ~new_json () in
    Format.printf "@[<v>%a@]@." W.Compare.pp r;
    if json then begin
      let comparison = W.Compare.to_json r in
      let path =
        A.write ~dir:out_dir "ATUM_compare.json"
          (A.Comparison { old_file; new_file; comparison })
      in
      Printf.printf "json             : wrote %s\n" path
    end;
    if r.W.Compare.regressed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two JSON artifacts metric by metric (throughputs higher-better, \
          latencies and footprints lower-better, wall-clock informational) and exit \
          non-zero if anything regressed past the threshold or a baseline metric \
          disappeared.  The CI bench-baseline gate runs this against \
          bench/baselines/.")
    Term.(const run $ old_arg $ new_arg $ threshold_arg $ json_arg $ out_dir_arg)

let report_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "An ATUM_timeseries.json, ATUM_resilience.json, ATUM_<cmd>.json or \
             ATUM_postmortem.json artifact (written into the --out-dir by any \
             subcommand run with --json or --dump-on-violation).")
  in
  let run file =
    or_exit "report" file (Result.bind (A.load file) (W.Report.render Format.std_formatter))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render an artifact as text.  ATUM_timeseries.json: one sparkline per \
          telemetry gauge plus the engine's per-label profile table (sorted by \
          self-time; by event count when the run had no ATUM_PROF_WALL).  \
          ATUM_resilience.json: the lines the chaos run printed (delivery success, \
          heals, restarts and the recovery verdict).  ATUM_postmortem.json: the \
          trigger, the telemetry gauges and the profile.  Exits 1 on an unreadable \
          or malformed FILE.")
    Term.(const run $ file_arg)

let dht_cmd =
  let byz_pct_arg =
    Arg.(value & opt int 0 & info [ "byzantine-pct" ] ~docv:"PCT" ~doc:"Percent of Byzantine routers.")
  in
  let run n seed byz_pct =
    let module Dht = Atum_apps.Dht in
    let d = Dht.build ~node_ids:(List.init n Fun.id) () in
    let rng = Atum_util.Rng.create seed in
    List.iter (Dht.mark_byzantine d)
      (Atum_util.Rng.sample_without_replacement rng (n * byz_pct / 100) (List.init n Fun.id));
    Printf.printf "nodes            : %d (%d%% Byzantine routers)\n" n byz_pct;
    Printf.printf "mean lookup hops : %.2f\n" (Dht.mean_lookup_hops d ~samples:500 ~seed);
    Printf.printf "lookup success   : %.3f\n" (Dht.lookup_success_rate d ~samples:500 ~seed)
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Probe the Chord DHT extension (footnote 5).")
    Term.(const run $ nodes_arg $ seed_arg $ byz_pct_arg)

let () =
  let info =
    Cmd.info "atum-cli" ~version:W.Build_info.version
      ~doc:"Drive simulated Atum deployments (volatile-group GCS) from the command line."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            grow_cmd; broadcast_cmd; churn_cmd; guideline_cmd; simulate_cmd; chaos_cmd;
            analyze_cmd; export_trace_cmd; compare_cmd; report_cmd; dht_cmd;
          ]))
