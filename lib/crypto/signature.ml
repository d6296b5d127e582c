(* Each identity's secret is kept as its prepared HMAC key (inner and
   outer midstates), and one scratch context per keyring computes every
   tag, so signing and verifying derive nothing per message. *)
type keyring = { keys : (string, Hmac.key) Hashtbl.t; scratch : Hmac.ctx; rng : Atum_util.Rng.t }

type t = { signer : string; tag : string }

let create_keyring ~seed =
  { keys = Hashtbl.create 64; scratch = Hmac.init ~key:""; rng = Atum_util.Rng.create seed }

let register kr identity =
  if not (Hashtbl.mem kr.keys identity) then begin
    let raw = Int64.to_string (Atum_util.Rng.bits64 kr.rng) in
    Hashtbl.replace kr.keys identity (Hmac.key kr.scratch (Sha256.digest (identity ^ ":" ^ raw)))
  end

let sign kr ~signer msg =
  let key = Hashtbl.find kr.keys signer in
  { signer; tag = Hmac.mac_with kr.scratch key ("sig:" ^ signer ^ ":" ^ msg) }

let verify kr s ~msg =
  match Hashtbl.find_opt kr.keys s.signer with
  | None -> false
  | Some key -> Hmac.verify_with kr.scratch key ~msg:("sig:" ^ s.signer ^ ":" ^ msg) ~tag:s.tag

let forge_attempt ~signer ~msg = { signer; tag = Sha256.digest ("forged:" ^ signer ^ ":" ^ msg) }
