(* perfbench: run one benchmark workload and print its metrics.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 times episodes for at least S seconds and prints the
   end-to-end metrics; --trace 1 runs one untraced and one traced
   episode and prints the per-layer metrics (it needs ATUM_PROF_WALL=1
   in the environment so the engine records per-label wall time).  The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Normally launched through run.py, which builds this program first. *)

module W = Perfbench.Workload
module L = Perfbench.Layers
module Tally = Perfbench.Tally
module Json = Atum_util.Json

(* Sub-seeds per run: the simulation metrics pool this many distinct
   deployments, and one more episode repeats the first sub-seed as the
   determinism guard. *)
let distinct = 3

let sub_seed seed j = (seed * 1000) + j

let usage () =
  prerr_endline "usage: main.exe --workload bcast_wan|churn|durable --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let parse () =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let kind = match W.of_name (get "workload") with Some k -> k | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let out = Option.value (List.assoc_opt "out" args) ~default:"perfbench/_out" in
  (kind, int "seed", float_of_int (int "seconds"), trace, out)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures; prerr_endline ("perfbench: " ^ m)) fmt

let check_consistency (e : W.episode) =
  match e.W.consistency with
  | Ok () -> ()
  | Error m -> fail "sub-seed %d: System.check_consistency failed: %s" e.W.seed m

let guard what a b =
  if a <> b then begin
    let diffs =
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k b with
          | Some v' when v' = v -> None
          | v' -> Some (Printf.sprintf "%s %s vs %s" k v (Option.value v' ~default:"-")))
        a
    in
    fail "determinism guard (%s): %s" what (String.concat ", " diffs)
  end

let print_episode j (e : W.episode) =
  Printf.printf "  episode %d  sub-seed %-6d setup %7.3f s  window %7.3f s wall / %5.1f sim-s  %d/%d ops complete\n%!"
    j e.W.seed e.W.setup_s e.W.measure_s e.W.window_s e.W.completed e.W.ops

let print_metric (m : L.metric) =
  Printf.printf "  %-32s %14.6g %-16s n=%d\n" m.L.name m.L.value m.L.unit m.L.n

let result ~tally metrics =
  Json.Obj
    [
      ("correct", Json.Bool (!failures = []));
      ("attempted", Json.Int (max 1 (Tally.attempted tally)));
      ("failed", Json.Int (Tally.failed tally));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : L.metric) -> (m.L.name, Json.Obj [ ("value", Json.Float m.L.value); ("unit", Json.String m.L.unit) ]))
             metrics) );
    ]

let print_checks tally =
  List.iter
    (fun (what, attempted, failed) -> Printf.printf "  check: %s: %d of %d\n" what failed attempted)
    (Tally.rows tally)

let timed_run kind ~seed ~seconds =
  let size = W.full kind in
  let t0 = Unix.gettimeofday () in
  (* At least [distinct + 1] episodes; after that, another one only if
     it is expected to end within [seconds]. *)
  let rec loop j acc top =
    let elapsed = Unix.gettimeofday () -. t0 in
    if j > distinct && elapsed +. (elapsed /. float_of_int j) > seconds then (List.rev acc, top)
    else begin
      let e = W.run kind size ~seed:(sub_seed seed (j mod distinct)) in
      print_episode j e;
      check_consistency e;
      if j >= distinct then
        guard
          (Printf.sprintf "episode %d vs %d" j (j mod distinct))
          (W.fingerprint `Full (List.nth acc (List.length acc - 1 - (j mod distinct))))
          (W.fingerprint `Full e);
      (* The peak is read once every sub-seed has run, so it covers the
         same episodes in every run. *)
      let top = if j = distinct - 1 then (Gc.quick_stat ()).Gc.top_heap_words else top in
      loop (j + 1) (e :: acc) top
    end
  in
  let all, top_heap_words = loop 0 [] 0 in
  let distinct_eps = List.filteri (fun i _ -> i < distinct) all in
  let tally = Tally.sum (List.map (fun (e : W.episode) -> e.W.tally) distinct_eps) in
  print_checks tally;
  let d = Perfbench.Pct.of_list (List.concat_map (fun (e : W.episode) -> e.W.delivery) distinct_eps) in
  Printf.printf "  delivery latency (sim s): p50 %.4f  p90 %.4f  p99 %.4f  max %.4f  n=%d%s\n" d.Perfbench.Pct.p50
    d.Perfbench.Pct.p90 d.Perfbench.Pct.p99 d.Perfbench.Pct.max d.Perfbench.Pct.n
    (if Perfbench.Pct.supports d ~p:99.0 then "" else "  (p99 has fewer than ten samples beyond it)");
  let metrics = L.end_to_end_values ~distinct:distinct_eps ~all ~top_heap_words in
  List.iter print_metric metrics;
  (tally, metrics)

let write_trace ~out kind ~seed (e : W.episode) =
  let rec mkdir d =
    if not (Sys.file_exists d) then begin
      mkdir (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir out;
  let path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" (W.name kind) seed) in
  Json.write_file ~path (Perfbench.Spans.to_trace_event e.W.spans);
  Printf.printf "  spans: %d written to %s (Chrome trace_event JSON)\n" (List.length (Perfbench.Spans.spans e.W.spans)) path

let traced_run kind ~seed ~out =
  if not Atum_sim.Prof_clock.enabled then begin
    prerr_endline "perfbench: --trace 1 needs ATUM_PROF_WALL=1 (run.py sets it)";
    exit 2
  end;
  let size = W.full kind and s = sub_seed seed 0 in
  let untraced = W.run kind size ~seed:s in
  print_episode 0 untraced;
  let traced = W.run ~traced:true kind size ~seed:s in
  Printf.printf "  traced    sub-seed %-6d setup %7.3f s  window %7.3f s wall\n" s traced.W.setup_s traced.W.measure_s;
  check_consistency untraced;
  guard "traced vs untraced" (W.fingerprint `Traced untraced) (W.fingerprint `Traced traced);
  print_checks untraced.W.tally;
  let sink = Option.get traced.W.sink in
  Printf.printf "  trace: %d recorded events overwritten before a drain\n" (Perfbench.Trace_sink.lost sink);
  let metrics = L.per_layer_values ~untraced ~traced in
  Printf.printf "  %-32s %14s %-16s %-9s %s\n" "per-layer metric" "value" "unit" "n" "share of traced window";
  List.iter
    (fun (m : L.metric) ->
      Printf.printf "  %-32s %14.6g %-16s n=%-7d %s\n" m.L.name m.L.value m.L.unit m.L.n
        (if m.L.unit = "s" then Printf.sprintf "%5.1f%%" (100.0 *. m.L.value /. traced.W.measure_s) else ""))
    metrics;
  write_trace ~out kind ~seed traced;
  (untraced.W.tally, metrics)

let () =
  let kind, seed, seconds, trace, out = parse () in
  Printf.printf "perfbench %s seed=%d trace=%d\n%!" (W.name kind) seed (if trace then 1 else 0);
  let tally, metrics =
    if trace then traced_run kind ~seed ~out else timed_run kind ~seed ~seconds
  in
  print_endline (Json.to_string ~pretty:false (result ~tally metrics));
  exit (if !failures = [] then 0 else 1)
