open Atum_crypto

(* ------------------------------------------------------------------ *)
(* SHA-256 against FIPS / NIST test vectors                            *)
(* ------------------------------------------------------------------ *)

let check_digest name msg expected =
  Alcotest.(check string) name expected (Sha256.digest_hex msg)

let test_sha_empty () =
  check_digest "empty" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha_abc () =
  check_digest "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha_two_blocks () =
  check_digest "448-bit" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha_896_bit () =
  check_digest "896-bit"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_sha_million_a () =
  check_digest "1M x a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha_empty_feeds_ignored () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "";
  Sha256.feed ctx "abc";
  Sha256.feed ctx "";
  Alcotest.(check string) "empty feeds are no-ops"
    (Sha256.digest_hex "abc") (Sha256.hex (Sha256.finalize ctx))

let test_sha_incremental_matches_oneshot () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  (* Feed in ragged pieces that straddle block boundaries. *)
  let rec feed i =
    if i < String.length msg then begin
      let len = min (7 + (i mod 61)) (String.length msg - i) in
      Sha256.feed ctx (String.sub msg i len);
      feed (i + len)
    end
  in
  feed 0;
  Alcotest.(check string) "incremental = one-shot"
    (Sha256.digest_hex msg)
    (Sha256.hex (Sha256.finalize ctx))

let test_sha_finalize_twice_raises () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: context already finalized")
    (fun () -> ignore (Sha256.finalize ctx))

(* One context serves digest after digest: after a [finalize] (or in
   the middle of a message) [reset] makes it hash like a fresh one. *)
let test_sha_reset_reuses_context () =
  let ctx = Sha256.init () in
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 13) land 255)) in
      Sha256.feed ctx msg;
      Alcotest.(check string) (Printf.sprintf "%d bytes" n) (Sha256.digest msg) (Sha256.finalize ctx);
      Sha256.reset ctx)
    [ 0; 3; 55; 56; 64; 100; 1000 ];
  Sha256.feed ctx "abandoned half a message";
  Sha256.reset ctx;
  Sha256.feed ctx "abc";
  Alcotest.(check string) "reset mid-message" (Sha256.digest "abc") (Sha256.finalize ctx)

let test_sha_lengths_55_56_64 () =
  (* Padding edge cases around the 56- and 64-byte boundaries: just
     check the incremental and one-shot paths agree and digests are
     distinct. *)
  let inputs = List.map (fun n -> String.make n 'x') [ 55; 56; 57; 63; 64; 65; 119; 120 ] in
  let digests = List.map Sha256.digest_hex inputs in
  Alcotest.(check int) "all distinct" (List.length inputs)
    (List.length (List.sort_uniq compare digests))

(* 200 bytes of varied content; the expected digests of its sub-ranges
   at offset 3 come from an independent SHA-256 (Python's hashlib). *)
let varied = String.init 200 (fun i -> Char.chr ((i * 7) land 255))

let test_sha_sub_range () =
  List.iter
    (fun (len, expected) ->
      let name = Printf.sprintf "len %d" len in
      Alcotest.(check string) name expected (Sha256.hex (Sha256.digest_sub varied ~off:3 ~len));
      Alcotest.(check string) (name ^ " = digest of the substring")
        (Sha256.digest (String.sub varied 3 len))
        (Sha256.digest_sub varied ~off:3 ~len);
      (* Fed from a buffer in two pieces, finalized in place. *)
      let ctx = Sha256.init () in
      let b = Bytes.of_string varied in
      Sha256.feed_bytes ctx b ~off:3 ~len:(len / 2);
      Sha256.feed_bytes ctx b ~off:(3 + (len / 2)) ~len:(len - (len / 2));
      let out = Bytes.make 40 '-' in
      Sha256.finalize_into ctx out ~off:5;
      Alcotest.(check string) (name ^ " finalize_into") expected
        (Sha256.hex (Bytes.sub_string out 5 32));
      Alcotest.(check string) (name ^ " leaves the rest") "--------"
        (Bytes.sub_string out 0 5 ^ Bytes.sub_string out 37 3))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (55, "70ffcb76c7ba06ba9db70992109f2df695398bb847eb8307127a8e5fbac946d4");
      (56, "4d5b3e38dc6e58f8c5f283b287b4a5ac16d21c71d18be31c75e964bfc8aa0225");
      (63, "c45c78735d716363cb530a472bfce86fd92a3082cbc5c8b9105bfdaca52e1302");
      (64, "0baf732c4c1ffb9f2279f67ef132f33712bbca3ca6008b17c6b8bc8305680f82");
      (65, "bb8e97c013a91609e7b6ac357ca532290efba1e60415e4818343b67ae2adb762");
      (128, "45dc195d3db1b5532716dcf998f146c97705aa581a3aa617fa90e5969c0e9f75");
    ];
  Alcotest.check_raises "range checked" (Invalid_argument "Sha256.feed: bad range") (fun () ->
      ignore (Sha256.digest_sub varied ~off:150 ~len:51))

let prop_sha_injective_on_samples =
  QCheck.Test.make ~name:"distinct strings hash differently" ~count:300
    QCheck.(pair string string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let prop_sha_length =
  QCheck.Test.make ~name:"digest is 32 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32)

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 against RFC 4231 vectors                                *)
(* ------------------------------------------------------------------ *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 case 6). *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_rfc4231_case3 () =
  (* 20-byte 0xaa key, 50 bytes of 0xdd data. *)
  let key = String.make 20 '\xaa' in
  let data = String.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key data)

let test_hmac_rfc4231_case4 () =
  let key = String.init 25 (fun i -> Char.chr (i + 1)) in
  let data = String.make 50 '\xcd' in
  Alcotest.(check string) "case 4"
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.mac_hex ~key data)

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "m" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"k" ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify ~key:"k" ~msg:"m2" ~tag);
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"k2" ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects truncated tag" false
    (Hmac.verify ~key:"k" ~msg:"m" ~tag:(String.sub tag 0 16))

(* Prepared keys: one context, reused across keys and rounds, gives
   the RFC 4231 tags (cases 1-4 and 6) that the one-shot [mac] gives. *)
let test_hmac_prepared_keys () =
  let vectors =
    [ (String.make 20 '\x0b', "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
      ("Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
      (String.make 20 '\xaa', String.make 50 '\xdd',
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
      (String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
      (String.make 131 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54") ]
  in
  let ctx = Hmac.init ~key:"unrelated" in
  let keys = List.map (fun (k, _, _) -> Hmac.key ctx k) vectors in
  for round = 1 to 2 do
    List.iteri
      (fun i ((secret, data, want), key) ->
        let ctx_name = Printf.sprintf "round %d case %d" round i in
        Alcotest.(check string) (ctx_name ^ ": cached") want (Sha256.hex (Hmac.mac_with ctx key data));
        Alcotest.(check string) (ctx_name ^ ": fresh") want (Hmac.mac_hex ~key:secret data);
        Alcotest.(check bool) (ctx_name ^ ": verifies") true
          (Hmac.verify_with ctx key ~msg:data ~tag:(Hmac.mac ~key:secret data));
        Alcotest.(check bool) (ctx_name ^ ": rejects another message") false
          (Hmac.verify_with ctx key ~msg:(data ^ "!") ~tag:(Hmac.mac ~key:secret data)))
      (List.combine vectors keys)
  done

(* The incremental interface over a message held in pieces, with a
   long key (hashed first); expected tags from Python's hmac module. *)
let test_hmac_incremental () =
  Alcotest.(check string) "one-shot"
    "ebe4f073173bc8370dcec3d211be114641a72979b9a95132ad659b1a8b2e9adc"
    (Hmac.mac_hex ~key:"deployment-key" varied);
  let blob = Bytes.of_string varied in
  let mac = Hmac.init ~key:(String.make 100 'k') in
  Hmac.feed_bytes mac blob ~off:0 ~len:1;
  Hmac.feed_bytes mac blob ~off:41 ~len:159;
  Hmac.finalize_into mac blob ~off:9;
  Alcotest.(check string) "pieces, tag written in place"
    "b6591e059488cedc359e1af538e1031171b313c59e9e6c860765fc4076335a3a"
    (Sha256.hex (Bytes.sub_string blob 9 32));
  Alcotest.(check string) "bytes around the tag untouched"
    (String.sub varied 0 9 ^ String.sub varied 41 159)
    (Bytes.sub_string blob 0 9 ^ Bytes.sub_string blob 41 159)

(* ------------------------------------------------------------------ *)
(* Simulated signatures                                                *)
(* ------------------------------------------------------------------ *)

let test_signature_roundtrip () =
  let kr = Signature.create_keyring ~seed:1 in
  Signature.register kr "alice";
  let s = Signature.sign kr ~signer:"alice" "hello" in
  Alcotest.(check bool) "verifies" true (Signature.verify kr s ~msg:"hello");
  Alcotest.(check bool) "wrong msg" false (Signature.verify kr s ~msg:"hellO")

let test_signature_unregistered_never_verifies () =
  let kr = Signature.create_keyring ~seed:1 in
  let s = Signature.{ signer = "mallory"; tag = String.make 32 'x' } in
  Alcotest.(check bool) "unknown signer" false (Signature.verify kr s ~msg:"m")

let test_signature_forgery_rejected () =
  let kr = Signature.create_keyring ~seed:1 in
  Signature.register kr "alice";
  let forged = Signature.forge_attempt ~signer:"alice" ~msg:"pay mallory" in
  Alcotest.(check bool) "forgery rejected" false
    (Signature.verify kr forged ~msg:"pay mallory")

let test_signature_cross_signer_rejected () =
  let kr = Signature.create_keyring ~seed:1 in
  Signature.register kr "alice";
  Signature.register kr "bob";
  let s = Signature.sign kr ~signer:"alice" "m" in
  let relabeled = { s with Signature.signer = "bob" } in
  Alcotest.(check bool) "relabel rejected" false (Signature.verify kr relabeled ~msg:"m")

let test_signature_register_idempotent () =
  let kr = Signature.create_keyring ~seed:1 in
  Signature.register kr "alice";
  let s = Signature.sign kr ~signer:"alice" "m" in
  Signature.register kr "alice";
  Alcotest.(check bool) "key survives re-register" true (Signature.verify kr s ~msg:"m")

(* ------------------------------------------------------------------ *)
(* Chunks                                                              *)
(* ------------------------------------------------------------------ *)

let test_chunks_split_join () =
  let content = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let pieces = Chunks.split ~chunk_count:7 content in
  Alcotest.(check int) "piece count" 7 (List.length pieces);
  Alcotest.(check string) "join inverts split" content (Chunks.join pieces)

let test_chunks_short_content () =
  let pieces = Chunks.split ~chunk_count:5 "ab" in
  Alcotest.(check int) "still 5 pieces" 5 (List.length pieces);
  Alcotest.(check string) "join" "ab" (Chunks.join pieces)

let test_chunks_verify () =
  let content = "the quick brown fox jumps over the lazy dog" in
  let set = Chunks.digests ~chunk_count:4 content in
  let pieces = Chunks.split ~chunk_count:4 content in
  List.iteri
    (fun i piece ->
      Alcotest.(check bool) "chunk verifies" true (Chunks.verify_chunk set ~index:i piece))
    pieces;
  Alcotest.(check bool) "corruption detected" false
    (Chunks.verify_chunk set ~index:0 "corrupted");
  Alcotest.(check bool) "index out of range" false
    (Chunks.verify_chunk set ~index:99 (List.hd pieces))

let prop_chunks_roundtrip =
  QCheck.Test.make ~name:"split/join roundtrip" ~count:200
    QCheck.(pair (int_range 1 20) string)
    (fun (k, s) -> Chunks.join (Chunks.split ~chunk_count:k s) = s)

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha_empty;
          Alcotest.test_case "abc" `Quick test_sha_abc;
          Alcotest.test_case "two blocks" `Quick test_sha_two_blocks;
          Alcotest.test_case "896-bit" `Quick test_sha_896_bit;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "incremental" `Quick test_sha_incremental_matches_oneshot;
          Alcotest.test_case "empty feeds" `Quick test_sha_empty_feeds_ignored;
          Alcotest.test_case "double finalize" `Quick test_sha_finalize_twice_raises;
          Alcotest.test_case "padding boundaries" `Quick test_sha_lengths_55_56_64;
          QCheck_alcotest.to_alcotest prop_sha_injective_on_samples;
          QCheck_alcotest.to_alcotest prop_sha_length;
          Alcotest.test_case "sub-range digest" `Quick test_sha_sub_range;
          Alcotest.test_case "reset reuses a context" `Quick test_sha_reset_reuses_context;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 4" `Quick test_hmac_rfc4231_case4;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "incremental" `Quick test_hmac_incremental;
          Alcotest.test_case "prepared keys" `Quick test_hmac_prepared_keys;
        ] );
      ( "signature",
        [
          Alcotest.test_case "roundtrip" `Quick test_signature_roundtrip;
          Alcotest.test_case "unregistered" `Quick test_signature_unregistered_never_verifies;
          Alcotest.test_case "forgery rejected" `Quick test_signature_forgery_rejected;
          Alcotest.test_case "cross-signer rejected" `Quick test_signature_cross_signer_rejected;
          Alcotest.test_case "register idempotent" `Quick test_signature_register_idempotent;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "split/join" `Quick test_chunks_split_join;
          Alcotest.test_case "short content" `Quick test_chunks_short_content;
          Alcotest.test_case "verify" `Quick test_chunks_verify;
          QCheck_alcotest.to_alcotest prop_chunks_roundtrip;
        ] );
    ]
