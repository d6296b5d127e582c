(* SHA-256 per FIPS 180-4, on native ints: each 32-bit word lives in
   the low half of a 63-bit OCaml int, so no Int32 is ever boxed. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

type ctx = {
  h : int array; (* 8 words of chaining state *)
  w : int array; (* 64-word message schedule scratch *)
  block : Bytes.t; (* 64-byte buffer for a partial block *)
  mutable block_len : int;
  mutable total_len : int; (* message length in bytes *)
  mutable finished : bool;
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
     0x5be0cd19 |]

let init () =
  {
    h = Array.copy iv;
    w = Array.make 64 0;
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
    finished = false;
  }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.block_len <- 0;
  ctx.total_len <- 0;
  ctx.finished <- false

let mask = 0xFFFFFFFF

(* Rotations leave junk above bit 31 and nothing masks it until a word
   is stored: junk only moves up through xor, and, or and add, so the
   low 32 bits stay exact.  Only inputs to a right shift — the
   schedule words and the [a]/[e] registers — must be clean.  A clean
   word copied into bits 32-62 as well ([dup]) rotates right by any
   [n] < 32 with one shift: bits [n .. n + 31] of the pair are the
   rotated word. *)
let[@inline] dup x = x lor (x lsl 32)

let[@inline] big_sigma0 a =
  let x = dup a in
  (x lsr 2) lxor (x lsr 13) lxor (x lsr 22)

let[@inline] big_sigma1 e =
  let x = dup e in
  (x lsr 6) lxor (x lsr 11) lxor (x lsr 25)

let[@inline] small_sigma0 w =
  let x = dup w in
  (x lsr 7) lxor (x lsr 18) lxor (w lsr 3)

let[@inline] small_sigma1 w =
  let x = dup w in
  (x lsr 17) lxor (x lsr 19) lxor (w lsr 10)

(* [ch] and [maj] in their three-operation forms. *)
let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

(* The rounds run four to a loop step with the registers renamed
   instead of shifted: a round writes only its new [e] (into the
   register that held [d]) and its new [a] (into the one that held
   [h]), and after four rounds the roles have rotated by four, which
   one exchange of the two halves undoes. *)
let process_block ctx buf off =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be buf (off + (t * 4))) land mask)
  done;
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + small_sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + small_sigma1 (Array.unsafe_get w (t - 2)))
      land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for q = 0 to 15 do
    let t = q * 4 in
    (* Round t: a b c d e f g h. *)
    let t1 =
      !hh + big_sigma1 !e + ch !e !f !g + Array.unsafe_get k t + Array.unsafe_get w t
    in
    d := (!d + t1) land mask;
    hh := (t1 + big_sigma0 !a + maj !a !b !c) land mask;
    (* Round t+1: h a b c d e f g. *)
    let t1 =
      !g + big_sigma1 !d + ch !d !e !f + Array.unsafe_get k (t + 1) + Array.unsafe_get w (t + 1)
    in
    c := (!c + t1) land mask;
    g := (t1 + big_sigma0 !hh + maj !hh !a !b) land mask;
    (* Round t+2: g h a b c d e f. *)
    let t1 =
      !f + big_sigma1 !c + ch !c !d !e + Array.unsafe_get k (t + 2) + Array.unsafe_get w (t + 2)
    in
    b := (!b + t1) land mask;
    f := (t1 + big_sigma0 !g + maj !g !hh !a) land mask;
    (* Round t+3: f g h a b c d e. *)
    let t1 =
      !e + big_sigma1 !b + ch !b !c !d + Array.unsafe_get k (t + 3) + Array.unsafe_get w (t + 3)
    in
    a := (!a + t1) land mask;
    e := (t1 + big_sigma0 !f + maj !f !g !hh) land mask;
    (* Now e f g h a b c d: swap the halves back. *)
    let x = !a in
    a := !e;
    e := x;
    let x = !b in
    b := !f;
    f := x;
    let x = !c in
    c := !g;
    g := x;
    let x = !d in
    d := !hh;
    hh := x
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx buf ~off ~len =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Sha256.feed: bad range";
  ctx.total_len <- ctx.total_len + len;
  let stop = off + len in
  let pos = ref off in
  (* Fill a partial block first. *)
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) len in
    Bytes.blit buf off ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := off + take;
    if ctx.block_len = 64 then begin
      process_block ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while stop - !pos >= 64 do
    process_block ctx buf !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit buf !pos ctx.block 0 (stop - !pos);
    ctx.block_len <- stop - !pos
  end

(* Reading through [unsafe_of_string] is sound: [feed_bytes] never
   writes to its input. *)
let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize_into ctx dst ~off =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  if off < 0 || off + 32 > Bytes.length dst then invalid_arg "Sha256.finalize_into: bad offset";
  ctx.finished <- true;
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let block = ctx.block and used = ctx.block_len in
  Bytes.set block used '\x80';
  if used >= 56 then begin
    Bytes.fill block (used + 1) (63 - used) '\000';
    process_block ctx block 0;
    Bytes.fill block 0 56 '\000'
  end
  else Bytes.fill block (used + 1) (55 - used) '\000';
  let bit_len = ctx.total_len * 8 in
  for i = 0 to 7 do
    Bytes.set block (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  process_block ctx block 0;
  ctx.block_len <- 0;
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    Bytes.set_uint16_be dst (off + (i * 4)) (word lsr 16);
    Bytes.set_uint16_be dst (off + (i * 4) + 2) (word land 0xFFFF)
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out ~off:0;
  Bytes.unsafe_to_string out

(* The chaining state between whole blocks, as 8 big-endian words. *)
let midstate_into ctx dst ~off =
  if ctx.block_len <> 0 || ctx.finished then invalid_arg "Sha256.midstate: not at a block boundary";
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    Bytes.set_uint16_be dst (off + (i * 4)) (word lsr 16);
    Bytes.set_uint16_be dst (off + (i * 4) + 2) (word land 0xFFFF)
  done

let restore ctx s ~off ~len =
  if len land 63 <> 0 then invalid_arg "Sha256.restore: length not a whole number of blocks";
  for i = 0 to 7 do
    ctx.h.(i) <-
      (String.get_uint16_be s (off + (i * 4)) lsl 16) lor String.get_uint16_be s (off + (i * 4) + 2)
  done;
  ctx.block_len <- 0;
  ctx.total_len <- len;
  ctx.finished <- false

let digest_sub s ~off ~len =
  let ctx = init () in
  feed_bytes ctx (Bytes.unsafe_of_string s) ~off ~len;
  finalize ctx

let digest s = digest_sub s ~off:0 ~len:(String.length s)

let hex_digits = "0123456789abcdef"

let hex raw =
  let out = Bytes.create (2 * String.length raw) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.unsafe_set out (2 * i) hex_digits.[b lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[b land 15])
    raw;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest s)
