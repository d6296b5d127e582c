module Signature = Atum_crypto.Signature

type msg = { instance_id : string; value : string; sigs : Signature.t list }

type t = {
  keyring : Signature.keyring;
  self : Smr_intf.node_id;
  members : Smr_intf.node_id list;
  sender : Smr_intf.node_id;
  f : int;
  instance_id : string;
  mutable extracted : string list; (* reverse order of first extraction *)
  mutable inbox : msg list;
  mutable decided : string option option;
}

let node_name id = "node-" ^ string_of_int id

(* The id a signer name stands for, read without allocating, or -1:
   [node_name] writes ids as [string_of_int] does, so a name with a
   sign, a leading zero or anything past the digits names nobody.  A
   per-instance list of member names would live as long as the
   instance and was measured to raise churn's peak heap. *)
let signer_id s =
  let n = String.length s in
  let rec digits i acc =
    if i = n then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> -1
  in
  if n <= 5 || n > 23 || not (String.starts_with ~prefix:"node-" s) || (s.[5] = '0' && n > 6) then -1
  else digits 5 0

let create ~keyring ~self ~members ~sender ~f ~instance_id =
  {
    keyring;
    self;
    members;
    sender;
    f;
    instance_id;
    extracted = [];
    inbox = [];
    decided = None;
  }

let signed_payload t value = t.instance_id ^ ":" ^ value

let others t = List.filter (fun m -> m <> t.self) t.members

let sign t value = Signature.sign t.keyring ~signer:(node_name t.self) (signed_payload t value)

let make_msg t value sigs = { instance_id = t.instance_id; value; sigs }

let initiate t value =
  if t.self <> t.sender then invalid_arg "Dolev_strong.initiate: not the sender";
  t.extracted <- [ value ];
  let m = make_msg t value [ sign t value ] in
  List.map (fun dst -> (dst, m)) (others t)

let initiate_equivocating t assignments =
  if t.self <> t.sender then invalid_arg "Dolev_strong.initiate_equivocating: not the sender";
  (* The faulty sender "extracts" nothing consistent; it just signs
     whatever it sends to each victim. *)
  List.map (fun (dst, value) -> (dst, make_msg t value [ sign t value ])) assignments

let receive t ~src:_ m = if Option.is_none t.decided then t.inbox <- m :: t.inbox

(* A valid chain has >= round distinct signatures over this instance's
   payload, all from members, the first one from the sender. *)
let chain_valid t ~round (m : msg) =
  String.equal m.instance_id t.instance_id
  && List.length m.sigs >= round
  &&
  match m.sigs with
  | [] -> false
  | first :: _ ->
    signer_id first.Signature.signer = t.sender
    &&
    let payload = signed_payload t m.value in
    let signers = List.map (fun s -> s.Signature.signer) m.sigs in
    let distinct = List.sort_uniq String.compare signers in
    List.length distinct = List.length signers
    && List.for_all
         (fun s ->
           (let id = signer_id s.Signature.signer in
            List.exists (Int.equal id) t.members)
           && Signature.verify t.keyring s ~msg:payload)
         m.sigs

let end_of_round t ~round =
  if Option.is_some t.decided then []
  else begin
    let batch = List.rev t.inbox in
    t.inbox <- [];
    let relays = ref [] in
    List.iter
      (fun m ->
        (* The cheap membership test first: a relay of a value already
           extracted is dropped without re-verifying its signatures. *)
        if (not (List.mem m.value t.extracted)) && chain_valid t ~round m then begin
          t.extracted <- t.extracted @ [ m.value ];
          if round <= t.f then begin
            let relay = make_msg t m.value (m.sigs @ [ sign t m.value ]) in
            List.iter (fun dst -> relays := (dst, relay) :: !relays) (others t)
          end
        end)
      batch;
    if round >= t.f + 1 then
      t.decided <-
        (match t.extracted with [ v ] -> Some (Some v) | _ -> Some None);
    List.rev !relays
  end

let decision t = t.decided

let extracted t = t.extracted
