module Json = Atum_util.Json

type gauge = { g_name : string; g_read : unit -> float }

type t = {
  engine : Engine.t;
  period : float;
  cap : int;
  mutable gauges : gauge list; (* sorted by name; late registrations append *)
  mutable started : bool;
  mutable running : bool;
  (* Ring storage, allocated at [start]: one shared time axis plus one
     value row per gauge, all indexed by the same ring cursor. *)
  mutable times : float array;
  mutable values : float array array; (* values.(gauge).(slot) *)
  mutable next : int;
  mutable total : int;
}

let create ?(period = 5.0) ?(capacity = 4096) engine =
  if period <= 0.0 then invalid_arg "Telemetry.create: period must be positive";
  if capacity <= 0 then invalid_arg "Telemetry.create: capacity must be positive";
  {
    engine;
    period;
    cap = capacity;
    gauges = [];
    started = false;
    running = false;
    times = [||];
    values = [||];
    next = 0;
    total = 0;
  }

let period t = t.period
let capacity t = t.cap

let register t name read =
  if List.exists (fun g -> String.equal g.g_name name) t.gauges then
    invalid_arg (Printf.sprintf "Telemetry.register: duplicate gauge %S" name);
  if not t.started then
    (* Keep the pre-start list sorted by name at all times, so
       [gauge_names], the artifact export, [to_csv] and [series] agree on one
       order whether or not [start] has run yet. *)
    t.gauges <-
      List.merge
        (fun a b -> String.compare a.g_name b.g_name)
        [ { g_name = name; g_read = read } ]
        t.gauges
  else begin
    (* Late registration (e.g. a fault schedule installed mid-run):
       append after the sorted start-time gauges and give the new gauge
       a zero-backfilled row so every row shares the ring's time axis. *)
    t.gauges <- t.gauges @ [ { g_name = name; g_read = read } ];
    t.values <- Array.append t.values [| Array.make t.cap 0.0 |]
  end

let register_delta t name read =
  let last = ref 0 in
  register t name (fun () ->
      let v = read () in
      let d = v - !last in
      last := v;
      float_of_int d)

let sample t =
  t.times.(t.next) <- Engine.now t.engine;
  List.iteri (fun i g -> t.values.(i).(t.next) <- g.g_read ()) t.gauges;
  t.next <- (t.next + 1) mod t.cap;
  t.total <- t.total + 1

let start t =
  if not t.started then begin
    t.started <- true;
    t.running <- true;
    (* [register] keeps pre-start gauges sorted; nothing to reorder. *)
    t.times <- Array.make t.cap 0.0;
    t.values <- Array.init (List.length t.gauges) (fun _ -> Array.make t.cap 0.0);
    Engine.every ~label:"telemetry.sample" t.engine ~period:t.period (fun () ->
        if t.running then sample t;
        t.running)
  end

let stop t = t.running <- false

let gauge_names t = List.map (fun g -> g.g_name) t.gauges

let samples_total t = t.total
let samples_kept t = min t.total t.cap

(* Oldest slot sits at [next] once the ring has wrapped. *)
let fold_slots t ~init ~f =
  let kept = samples_kept t in
  let first = if t.total > t.cap then t.next else 0 in
  let acc = ref init in
  for i = 0 to kept - 1 do
    acc := f !acc ((first + i) mod t.cap)
  done;
  !acc

let times t = List.rev (fold_slots t ~init:[] ~f:(fun acc s -> t.times.(s) :: acc))

let series_by_index t i =
  List.rev (fold_slots t ~init:[] ~f:(fun acc s -> t.values.(i).(s) :: acc))

let series t name =
  let rec find i = function
    | [] -> []
    | g :: rest -> if String.equal g.g_name name then series_by_index t i else find (i + 1) rest
  in
  find 0 t.gauges

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun g ->
      Buffer.add_char buf ',';
      Buffer.add_string buf g.g_name)
    t.gauges;
  Buffer.add_char buf '\n';
  ignore
    (fold_slots t ~init:() ~f:(fun () s ->
         Buffer.add_string buf (Json.float_to_string t.times.(s));
         List.iteri
           (fun i _ ->
             Buffer.add_char buf ',';
             Buffer.add_string buf (Json.float_to_string t.values.(i).(s)))
           t.gauges;
         Buffer.add_char buf '\n'));
  Buffer.contents buf
