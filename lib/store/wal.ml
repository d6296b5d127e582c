(* Append-only write-ahead log.

   Record framing, per entry:

     +------------+------------------+------------------+
     | length (4B | SHA-256(payload) | payload          |
     | big-endian)| (32 bytes, raw)  | (compact JSON)   |
     +------------+------------------+------------------+

   Replay walks the frames front to back, stopping at the first frame
   that does not check out.  A short tail (crash mid-append) yields
   [Truncated] and the valid prefix survives; a checksum or decode
   mismatch yields [Corrupt] — the caller decides whether the prefix
   is still trustworthy (System falls back to a fresh join). *)

module Json = Atum_util.Json
module Sha256 = Atum_crypto.Sha256

let header_bytes = 4 + 32

(* Upper bound on a single record: a length prefix beyond this is
   treated as corruption, not as a 2 GB allocation request. *)
let max_record_bytes = 1 lsl 26

type status =
  | Complete
  | Truncated of { dropped_bytes : int }
  | Corrupt of { at_record : int }

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* The payload is encoded into the caller's reusable [buf]; the frame
   is then the one allocation: header and checksum are written into it
   around the payload, the SHA-256 read straight from its bytes by the
   caller's reusable context [sum].  A frame names no node, so one
   frame can be appended to any number of logs. *)
let frame sum buf record =
  Buffer.clear buf;
  Json.to_buffer ~pretty:false buf record;
  let len = Buffer.length buf in
  if len > max_record_bytes then invalid_arg "Wal.frame: record too large";
  let frame = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Buffer.blit buf 0 frame header_bytes len;
  Sha256.reset sum;
  Sha256.feed_bytes sum frame ~off:header_bytes ~len;
  Sha256.finalize_into sum frame ~off:4;
  Bytes.unsafe_to_string frame

let decode data =
  let n = String.length data in
  let entries = ref [] in
  let rec scan off idx =
    if off = n then (List.rev !entries, Complete)
    else if off + header_bytes > n then
      (List.rev !entries, Truncated { dropped_bytes = n - off })
    else begin
      let len = read_be32 data off in
      if len < 0 || len > max_record_bytes then
        (List.rev !entries, Corrupt { at_record = idx })
      else if off + header_bytes + len > n then
        (List.rev !entries, Truncated { dropped_bytes = n - off })
      else begin
        let sum = Sha256.digest_sub data ~off:(off + header_bytes) ~len in
        if not (String.equal sum (String.sub data (off + 4) 32)) then
          (List.rev !entries, Corrupt { at_record = idx })
        else
          match Json.of_string (String.sub data (off + header_bytes) len) with
          | Error _ -> (List.rev !entries, Corrupt { at_record = idx })
          | Ok v ->
            entries := v :: !entries;
            scan (off + header_bytes + len) (idx + 1)
      end
    end
  in
  scan 0 0

let replay (b : Backend.t) ~node ~name =
  match b.Backend.load ~node ~name with
  | None -> ([], Complete)
  | Some data -> decode data

let reset (b : Backend.t) ~node ~name = b.Backend.remove ~node ~name
