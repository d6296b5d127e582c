type msg = { slot : int; sender : Smr_intf.node_id; ds : Dolev_strong.msg }

type t = {
  keyring : Atum_crypto.Signature.keyring;
  tr : msg Smr_intf.transport;
  epoch_id : string;
  on_execute : Smr_intf.op -> unit;
  mutable slot : int;
  mutable round_in_slot : int; (* 0 before the first boundary *)
  mutable pending : string list; (* reversed *)
  mutable instances : (Smr_intf.node_id * Dolev_strong.t) list;
  mutable stopped : bool;
}

(* Batches are length-prefixed so payloads can contain any bytes. *)
let encode_batch payloads =
  String.concat ""
    (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) payloads)

let decode_batch s =
  let n = String.length s in
  let rec loop i acc =
    if i >= n then List.rev acc
    else begin
      match String.index_from_opt s i ':' with
      | None -> List.rev acc (* malformed tail from a Byzantine sender *)
      | Some j ->
        (match int_of_string_opt (String.sub s i (j - i)) with
        | None -> List.rev acc
        | Some len when len < 0 || j + 1 + len > n -> List.rev acc
        | Some len -> loop (j + 1 + len) (String.sub s (j + 1) len :: acc))
    end
  in
  loop 0 []

let create ~keyring ~transport ~epoch_id ~on_execute =
  {
    keyring;
    tr = transport;
    epoch_id;
    on_execute;
    slot = 0;
    round_in_slot = 0;
    pending = [];
    instances = [];
    stopped = false;
  }

let propose t payload = if not t.stopped then t.pending <- payload :: t.pending

(* Instances are created lazily — one per sender that actually
   transmits this slot — so idle slots cost nothing.  This matters at
   scale: most vgroup slots carry no operations. *)
let instance_for t sender =
  match List.assoc_opt sender t.instances with
  | Some ds -> Some ds
  | None ->
    if Smr_intf.index t.tr.ids sender >= 0 then begin
      let instance_id =
        String.concat "" [ t.epoch_id; "/s"; string_of_int t.slot; "/n"; string_of_int sender ]
      in
      let ds =
        Dolev_strong.create ~keyring:t.keyring ~self:t.tr.self ~members:t.tr.members
          ~sender ~f:t.tr.f ~instance_id
      in
      t.instances <- (sender, ds) :: t.instances;
      Some ds
    end
    else None

let receive t ~src (m : msg) =
  if (not t.stopped) && m.slot = t.slot then begin
    match instance_for t m.sender with
    | Some ds -> Dolev_strong.receive ds ~src m.ds
    | None -> ()
  end

let send_all t sender msgs =
  List.iter (fun (dst, ds) -> t.tr.send dst { slot = t.slot; sender; ds }) msgs

let start_slot t =
  t.slot <- t.slot + 1;
  t.round_in_slot <- 1;
  t.instances <- [];
  match t.pending with
  | [] -> ()
  | payloads ->
    t.pending <- [];
    (match instance_for t t.tr.self with
    | Some ds ->
      send_all t t.tr.self (Dolev_strong.initiate ds (encode_batch (List.rev payloads)))
    | None -> ())

let process_round t =
  List.iter
    (fun (sender, ds) ->
      send_all t sender (Dolev_strong.end_of_round ds ~round:t.round_in_slot))
    t.instances

let finish_slot t =
  let deciders = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.instances in
  List.iter
    (fun (sender, ds) ->
      match Dolev_strong.decision ds with
      | Some (Some batch) ->
        List.iter
          (fun payload -> t.on_execute { Smr_intf.origin = sender; payload })
          (decode_batch batch)
      | Some None | None -> ())
    deciders

let on_round_boundary t =
  if not t.stopped then begin
    if t.round_in_slot = 0 then start_slot t
    else begin
      process_round t;
      if t.round_in_slot >= t.tr.f + 1 then begin
        finish_slot t;
        start_slot t
      end
      else t.round_in_slot <- t.round_in_slot + 1
    end
  end

let stop t = t.stopped <- true
