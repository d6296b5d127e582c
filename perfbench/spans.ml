module Json = Atum_util.Json

type span = { id : int; name : string; parent : int; op : int; start : float; stop : float }

type t = {
  enabled : bool;
  clock : unit -> float;
  mutable closed : span list;  (* newest first *)
  mutable stack : (int * int) list;  (* open (id, op), innermost first *)
  mutable next : int;
}

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { enabled; clock; closed = []; stack = []; next = 0 }

let with_span t ?op name f =
  if not t.enabled then f ()
  else begin
    let parent, parent_op = match t.stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1) in
    let op = Option.value op ~default:parent_op in
    let id = t.next in
    t.next <- id + 1;
    t.stack <- (id, op) :: t.stack;
    let start = t.clock () in
    Fun.protect f ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        t.closed <- { id; name; parent; op; start; stop = t.clock () } :: t.closed)
  end

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

let dur s = s.stop -. s.start

let self_times ?under t =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.closed;
  let rec inside s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> Some p.name = under || inside p
    | None -> false
  in
  let kept = if under = None then t.closed else List.filter inside t.closed in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.closed;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      Hashtbl.replace self s.name
        (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.0))
    kept;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

let to_trace_event t =
  let ss = spans t in
  let t0 = match ss with s :: _ -> s.start | [] -> 0.0 in
  let us x = Json.Float (Float.round (x *. 1e7) /. 10.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "perfbench");
        ("ph", Json.String "X");
        ("ts", us (s.start -. t0));
        ("dur", us (dur s));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("op", Json.Int s.op) ]);
      ]
  in
  Json.Obj [ ("traceEvents", Json.List (List.map event ss)); ("displayTimeUnit", Json.String "ms") ]
