module Json = Atum_util.Json
module A = Atum_sim.Artifact

let growth_row ~protocol ~target (r : Growth.result) =
  Json.Obj
    ([
      ("protocol", Json.String protocol);
      ("target", Json.Int target);
      ("final_size", Json.Int r.Growth.final_size);
      ("duration_s", Json.Float r.duration);
      ("reached_target", Json.Bool r.reached_target);
      ("join_latency_p50_s", Json.Float r.join_latency_p50);
      ("join_latency_p90_s", Json.Float r.join_latency_p90);
      ("exchanges_completed", Json.Int r.exchanges_completed);
      ("exchanges_suppressed", Json.Int r.exchanges_suppressed);
      ("completion_rate", Json.Float r.completion_rate);
      ("engine_events", Json.Int r.events_processed);
      ( "curve",
        Json.List
          (List.map
             (fun (p : Growth.point) ->
               Json.Obj [ ("t", Json.Float p.Growth.time); ("size", Json.Int p.Growth.size) ])
             r.curve) );
    ]
    @
    match r.Growth.timeseries with
    | None -> []
    | Some ts -> [ ("timeseries", A.encode A.telemetry ts) ])

let latency_row ~label (r : Latency_exp.result) =
  let lats = r.Latency_exp.latencies in
  let pct p = if lats = [] then Json.Null else Json.Float (Atum_util.Stats.percentile lats p) in
  Json.Obj
    [
      ("label", Json.String label);
      ("n", Json.Int (List.length lats));
      ("p10_s", pct 10.0);
      ("p50_s", pct 50.0);
      ("p90_s", pct 90.0);
      ("p99_s", pct 99.0);
      ( "max_s",
        if lats = [] then Json.Null else Json.Float (List.fold_left max 0.0 lats) );
      ("delivery_fraction", Json.Float r.delivery_fraction);
    ]

(* ------------------------------------------------------------------ *)
(* Rendering ATUM_timeseries.json: gauge timelines + engine profile    *)
(* ------------------------------------------------------------------ *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 60) xs =
  match xs with
  | [] -> ""
  | _ ->
    let xs = Array.of_list xs in
    let n = Array.length xs in
    let width = min width n in
    (* Downsample by averaging equal slices so spikes survive zoom-out
       better than point sampling would. *)
    let cell i =
      let lo = i * n / width and hi = max ((i + 1) * n / width) ((i * n / width) + 1) in
      let sum = ref 0.0 in
      for j = lo to hi - 1 do
        sum := !sum +. xs.(j)
      done;
      !sum /. float_of_int (hi - lo)
    in
    let cells = Array.init width cell in
    let mn = Array.fold_left min cells.(0) cells in
    let mx = Array.fold_left max cells.(0) cells in
    let span = mx -. mn in
    let buf = Buffer.create (width * 3) in
    Array.iter
      (fun v ->
        let level =
          if span <= 0.0 then 0
          else
            let l = int_of_float (7.99 *. ((v -. mn) /. span)) in
            if l < 0 then 0 else if l > 7 then 7 else l
        in
        Buffer.add_string buf spark_levels.(level))
      cells;
    Buffer.contents buf

let stats_of xs =
  match xs with
  | [] -> (0.0, 0.0, 0.0, 0.0)
  | x :: _ ->
    let mn = List.fold_left min x xs in
    let mx = List.fold_left max x xs in
    let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    let last = List.nth xs (List.length xs - 1) in
    (mn, mean, mx, last)

let pp_telemetry fmt (t : A.telemetry) =
  let t_lo, t_hi =
    match t.times with [] -> (0.0, 0.0) | x :: _ -> (x, List.nth t.times (List.length t.times - 1))
  in
  Format.fprintf fmt "gauges: %d, samples kept: %d of %d, sim-time %.0f..%.0f s (period %.1f s)@."
    (List.length t.gauges) (List.length t.times) t.samples_total t_lo t_hi t.period_s;
  List.iter
    (fun (name, xs) ->
      let mn, mean, mx, last = stats_of xs in
      Format.fprintf fmt "  %-28s %s@." name (sparkline xs);
      Format.fprintf fmt "  %-28s min=%g mean=%.2f max=%g last=%g@." "" mn mean mx last)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) t.gauges)

let pp_profile fmt (p : A.profile) =
  (* Self-time first; with the wall clock off (all zeros) the event
     count decides, so the table is still ranked. *)
  let rows =
    List.sort
      (fun (a : Atum_sim.Engine.label_profile) (b : Atum_sim.Engine.label_profile) ->
        match Float.compare b.wall_self_s a.wall_self_s with
        | 0 -> (
          match Int.compare b.events a.events with 0 -> String.compare a.label b.label | c -> c)
        | c -> c)
      p.labels
  in
  Format.fprintf fmt "engine profile: %d events, %d labels%s@." p.events_total (List.length rows)
    (if p.wall_clock_enabled then "" else " (wall clock off: self-times zero, ranked by events)");
  Format.fprintf fmt "  %-20s %10s %12s %10s %10s %s@." "label" "events" "self (ms)" "vt first"
    "vt last" "typ delay";
  List.iter
    (fun (r : Atum_sim.Engine.label_profile) ->
      let busiest, _ =
        List.fold_left
          (fun (best, best_n) (b, n) -> if n > best_n then (b, n) else (best, best_n))
          (0, 0) r.delay_hist
      in
      let lo = Atum_sim.Engine.delay_bucket_lo busiest in
      Format.fprintf fmt "  %-20s %10d %12.2f %10.0f %10.0f %s@." r.label r.events
        (1000.0 *. r.wall_self_s) r.vt_first r.vt_last
        (if lo <= 0.0 then "immediate" else Printf.sprintf ">=%gs" lo))
    rows

let pp_header fmt (h : A.header) =
  Format.fprintf fmt "artifact         : cmd=%s seed=%d schema=%d@." h.cmd h.seed A.schema_version;
  Format.fprintf fmt "build            : %s (git %s)@." h.build_info.version h.build_info.git

let pp_resilience fmt (r : A.resilience) =
  let count vs = List.fold_left (fun acc (_, n) -> acc + n) 0 vs in
  Format.fprintf fmt "system size      : %d (+%d attackers, target vgroup %d)@." r.n r.attackers
    r.target_vg;
  Format.fprintf fmt "fault schedule   : %d steps, %d applied@." (List.length r.schedule)
    r.faults_applied;
  List.iter
    (fun (p : A.phase_stats) ->
      Format.fprintf fmt "delivery %-8s: %.1f%% (%d broadcasts, %d/%d deliveries)@." p.phase
        (100.0 *. p.success) p.broadcasts p.delivered p.expected)
    r.phases;
  List.iter
    (fun (h : A.heal_record) ->
      match h.time_to_heal with
      | Some d -> Format.fprintf fmt "heal at t=%-6.0f : converged in %.0f s@." h.heal_at d
      | None ->
        Format.fprintf fmt "heal at t=%-6.0f : window closed before convergence@." h.heal_at)
    r.heals;
  Format.fprintf fmt "violations       : before=%d during=%d after=%d@." (count r.violations_before)
    (count r.violations_during) (count r.violations_after);
  List.iter
    (fun (x : A.restart) ->
      let since what = function
        | Some t -> Printf.sprintf ", %s in %.0f s" what (t -. x.restarted_at)
        | None -> ""
      in
      Format.fprintf fmt "restart node %-4d: %s, %d WAL entries replayed%s%s@." x.node
        (if x.fallback then "corrupt store, fresh join" else "durable recovery")
        x.replayed
        (match x.rejoined_at with None -> ", never rejoined" | t -> since "rejoined" t)
        (since "caught up" x.caught_up_at))
    r.restarts;
  Format.fprintf fmt "consistency      : %s@." r.consistency;
  Format.fprintf fmt "converged        : %b@." r.converged

let render fmt (a : A.t) =
  match a with
  | Run { header; resilience = Some r; _ } ->
    pp_header fmt header;
    pp_resilience fmt r;
    Ok ()
  | Run { header; profile; _ } ->
    pp_header fmt header;
    pp_profile fmt profile;
    Ok ()
  | Timeseries { header; telemetry; profile } ->
    pp_header fmt header;
    pp_telemetry fmt telemetry;
    pp_profile fmt profile;
    Ok ()
  | Postmortem f ->
    Format.fprintf fmt "artifact         : postmortem at t=%.0f s, schema=%d@." f.sim_time_s
      A.schema_version;
    (match f.trigger with
    | Some g -> Format.fprintf fmt "trigger          : %s (%s)@." g.reason g.detail
    | None -> Format.fprintf fmt "trigger          : none@.");
    Option.iter (pp_telemetry fmt) f.telemetry;
    pp_profile fmt f.profile;
    Ok ()
  | Bench _ | Analysis _ | Comparison _ ->
    Error "nothing to render (report reads run, timeseries, resilience and postmortem artifacts)"
