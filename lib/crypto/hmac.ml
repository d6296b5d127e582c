let block_size = 64

(* An HMAC in progress: the inner hash, already fed the inner pad, and
   that pad, which [finalize_into] turns into the outer pad in place.
   Neither pad nor message is ever concatenated into a copy. *)
type ctx = { inner : Sha256.ctx; pad : Bytes.t }

let init ~key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad = Bytes.make block_size '\x36' in
  String.iteri (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor 0x36))) key;
  let inner = Sha256.init () in
  Sha256.feed_bytes inner pad ~off:0 ~len:block_size;
  { inner; pad }

let feed_bytes t buf ~off ~len = Sha256.feed_bytes t.inner buf ~off ~len
let feed t s = Sha256.feed t.inner s

let finalize_into t dst ~off =
  let inner = Bytes.create 32 in
  Sha256.finalize_into t.inner inner ~off:0;
  for i = 0 to block_size - 1 do
    Bytes.set t.pad i (Char.chr (Char.code (Bytes.get t.pad i) lxor (0x36 lxor 0x5c)))
  done;
  let outer = Sha256.init () in
  Sha256.feed_bytes outer t.pad ~off:0 ~len:block_size;
  Sha256.feed_bytes outer inner ~off:0 ~len:32;
  Sha256.finalize_into outer dst ~off

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
