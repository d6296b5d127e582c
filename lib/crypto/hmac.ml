let block_size = 64

(* A key as the two chaining states HMAC starts its hashes from:
   SHA-256 after the inner pad, then after the outer pad.  Each is one
   compression, paid once per key instead of twice per message. *)
type key = string

(* An HMAC in progress: one hash context, resumed from the key's inner
   midstate, and a scratch that holds a pad while a key is derived and
   the inner digest while a tag is finished, which the outer hash
   (resumed from the outer midstate) then absorbs. *)
type ctx = { hash : Sha256.ctx; mutable key : key; buf : Bytes.t }

let key t secret =
  let secret = if String.length secret > block_size then Sha256.digest secret else secret in
  let out = Bytes.create 64 in
  let midstate byte ~off =
    Bytes.fill t.buf 0 block_size (Char.chr byte);
    for i = 0 to String.length secret - 1 do
      Bytes.set t.buf i (Char.chr (Char.code secret.[i] lxor byte))
    done;
    Sha256.reset t.hash;
    Sha256.feed_bytes t.hash t.buf ~off:0 ~len:block_size;
    Sha256.midstate_into t.hash out ~off
  in
  midstate 0x36 ~off:0;
  midstate 0x5c ~off:32;
  Bytes.unsafe_to_string out

let reset t = Sha256.restore t.hash t.key ~off:0 ~len:block_size

let init ~key:secret =
  let t = { hash = Sha256.init (); key = ""; buf = Bytes.create block_size } in
  t.key <- key t secret;
  reset t;
  t

let feed_bytes t buf ~off ~len = Sha256.feed_bytes t.hash buf ~off ~len

let finalize_into t dst ~off =
  Sha256.finalize_into t.hash t.buf ~off:0;
  Sha256.restore t.hash t.key ~off:32 ~len:block_size;
  Sha256.feed_bytes t.hash t.buf ~off:0 ~len:32;
  Sha256.finalize_into t.hash dst ~off

let mac_with t key msg =
  t.key <- key;
  reset t;
  Sha256.feed t.hash msg;
  let out = Bytes.create 32 in
  finalize_into t out ~off:0;
  Bytes.unsafe_to_string out

let mac ~key msg =
  let t = init ~key in
  mac_with t t.key msg

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

let equal_tags expected tag =
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
    !diff = 0
  end

let verify_with t key ~msg ~tag = equal_tags (mac_with t key msg) tag

let verify ~key ~msg ~tag = equal_tags (mac ~key msg) tag
