(* Versioned, authenticated snapshots.

   Layout:  magic "ATUMSNAP" | version (1 byte) | HMAC-SHA256 tag
   (32 bytes, over version byte + payload) | payload (compact JSON).

   The tag (keyed per deployment) catches both bit rot and a log from
   a different deployment being replayed into this one; either reads
   back as [Error], which the recovery path treats like a corrupt
   WAL. *)

module Json = Atum_util.Json
module Hmac = Atum_crypto.Hmac

let magic = "ATUMSNAP"
let version = 1

let header_bytes = String.length magic + 1 + 32

(* One allocation, the blob: [write] streams the payload into the
   caller's reusable [buf], it is copied in behind the header, and the
   tag is computed with the caller's reusable [mac] over the version
   byte and payload where they lie and written into its slot between
   them. *)
let save buf mac (b : Backend.t) ~node ~name write =
  Buffer.clear buf;
  write buf;
  let len = Buffer.length buf in
  let vpos = String.length magic in
  let blob = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 blob 0 vpos;
  Bytes.set blob vpos (Char.chr version);
  Buffer.blit buf 0 blob header_bytes len;
  Hmac.reset mac;
  Hmac.feed_bytes mac blob ~off:vpos ~len:1;
  Hmac.feed_bytes mac blob ~off:header_bytes ~len;
  Hmac.finalize_into mac blob ~off:(vpos + 1);
  b.Backend.save ~node ~name (Bytes.unsafe_to_string blob);
  Bytes.length blob

let load (b : Backend.t) ~key ~node ~name =
  match b.Backend.load ~node ~name with
  | None -> Ok None
  | Some blob ->
    let n = String.length blob in
    if n < header_bytes then Error "snapshot too short"
    else if not (String.equal (String.sub blob 0 (String.length magic)) magic) then
      Error "bad snapshot magic"
    else begin
      let v = Char.code blob.[String.length magic] in
      if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
      else begin
        let tag = String.sub blob (String.length magic + 1) 32 in
        let payload = String.sub blob header_bytes (n - header_bytes) in
        let vbyte = String.make 1 (Char.chr v) in
        if not (Hmac.verify ~key ~msg:(vbyte ^ payload) ~tag) then
          Error "snapshot authentication failed"
        else
          match Json.of_string payload with
          | Ok doc -> Ok (Some doc)
          | Error e -> Error ("snapshot decode: " ^ e)
      end
    end

let remove (b : Backend.t) ~node ~name = b.Backend.remove ~node ~name
