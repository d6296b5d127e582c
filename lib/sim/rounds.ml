type t = {
  engine : Engine.t;
  duration : float;
  mutable round : int;
  mutable running : bool;
  mutable next_id : int;
  mutable subscribers : (int * (int -> unit)) list; (* in subscription order *)
}

let create engine ~round_duration =
  if round_duration <= 0.0 then invalid_arg "Rounds.create: duration must be positive";
  { engine; duration = round_duration; round = 0; running = false; next_id = 0; subscribers = [] }

let round_duration t = t.duration


let subscribe t f =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subscribers <- t.subscribers @ [ (id, f) ];
  id

let unsubscribe t id = t.subscribers <- List.filter (fun (i, _) -> i <> id) t.subscribers

let rec tick t () =
  if t.running then begin
    t.round <- t.round + 1;
    List.iter (fun (_, f) -> f t.round) t.subscribers;
    Engine.schedule ~label:"rounds.tick" t.engine ~delay:t.duration (tick t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.schedule ~label:"rounds.tick" t.engine ~delay:t.duration (tick t)
  end

let stop t = t.running <- false
