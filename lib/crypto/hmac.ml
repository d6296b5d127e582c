let block_size = 64

(* An HMAC in progress: one hash context, already fed the inner pad,
   and a scratch holding that pad with room for the inner digest
   behind it.  [finalize_into] writes the inner digest into the room,
   turns the pad into the outer pad in place and runs the outer hash
   on the same context over the whole scratch, so neither pad nor
   message is ever concatenated into a copy and one context serves
   both hashes. *)
type ctx = { hash : Sha256.ctx; pad : Bytes.t; ipad : Bytes.t (* the key's inner pad *) }

let reset t =
  Bytes.blit t.ipad 0 t.pad 0 block_size;
  Sha256.reset t.hash;
  Sha256.feed_bytes t.hash t.pad ~off:0 ~len:block_size

let init ~key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let ipad = Bytes.make block_size '\x36' in
  String.iteri (fun i c -> Bytes.set ipad i (Char.chr (Char.code c lxor 0x36))) key;
  let t = { hash = Sha256.init (); pad = Bytes.create (block_size + 32); ipad } in
  reset t;
  t

let feed_bytes t buf ~off ~len = Sha256.feed_bytes t.hash buf ~off ~len
let feed t s = Sha256.feed t.hash s

(* ipad xor opad, in every byte of a word. *)
let ipad_to_opad = 0x6a6a6a6a6a6a6a6aL

let finalize_into t dst ~off =
  Sha256.finalize_into t.hash t.pad ~off:block_size;
  for i = 0 to (block_size / 8) - 1 do
    Bytes.set_int64_le t.pad (i * 8) (Int64.logxor (Bytes.get_int64_le t.pad (i * 8)) ipad_to_opad)
  done;
  Sha256.reset t.hash;
  Sha256.feed_bytes t.hash t.pad ~off:0 ~len:(block_size + 32);
  Sha256.finalize_into t.hash dst ~off

let mac ~key msg =
  let t = init ~key in
  feed t msg;
  let out = Bytes.create 32 in
  finalize_into t out ~off:0;
  Bytes.unsafe_to_string out

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

let verify ~key ~msg ~tag =
  let expected = mac ~key msg in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i]))
      expected;
    !diff = 0
  end
