type keyring = { secrets : (string, string) Hashtbl.t; rng : Atum_util.Rng.t }

type t = { signer : string; tag : string }

let create_keyring ~seed = { secrets = Hashtbl.create 64; rng = Atum_util.Rng.create seed }

let register kr identity =
  if not (Hashtbl.mem kr.secrets identity) then begin
    let raw = Int64.to_string (Atum_util.Rng.bits64 kr.rng) in
    Hashtbl.replace kr.secrets identity (Sha256.digest (identity ^ ":" ^ raw))
  end


let sign kr ~signer msg =
  let secret = Hashtbl.find kr.secrets signer in
  { signer; tag = Hmac.mac ~key:secret ("sig:" ^ signer ^ ":" ^ msg) }

let verify kr s ~msg =
  match Hashtbl.find_opt kr.secrets s.signer with
  | None -> false
  | Some secret -> Hmac.verify ~key:secret ~msg:("sig:" ^ s.signer ^ ":" ^ msg) ~tag:s.tag

let forge_attempt ~signer ~msg = { signer; tag = Sha256.digest ("forged:" ^ signer ^ ":" ^ msg) }
