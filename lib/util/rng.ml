(* The splitmix64 state lives unboxed in an 8-byte buffer: a
   [mutable int64] field would box a fresh int64 on every draw.  With
   the accessors inlined, a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

let copy t = Bytes.copy t

(* Uniform int in [0, bound) by rejection on the top bits. *)
let rec int_loop t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 1) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then int_loop t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_loop t bound

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p = float t 1.0 < p

(* [float t 1.0 < p] compares the exact real [r / 2^53] with [p], so
   it holds exactly when [r < p * 2^53], and, [r] being an integer,
   exactly when [r < ceil (p * 2^53)].  Scaling by a power of two is
   exact, and the ceiling is at most [2^53]: the integer test consumes
   the same draw and gives the same answer as [bernoulli]. *)
let bernoulli_threshold p =
  if p >= 1.0 then 1 lsl 53 else if p > 0.0 then Float.to_int (Float.ceil (Float.ldexp p 53)) else 0

let[@inline] bernoulli_below t k = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) < k

(* [bernoulli_below] for each of [width] cells, with the state in a
   local (unboxed) and stored back once.  Threshold 0 never hits and
   [2^53] always does, so there the draws only advance the state: by
   [width] gammas, which is the same state the loop reaches. *)
let bernoulli_row t k mask ~first ~width =
  if k <= 0 || k >= 1 lsl 53 then begin
    Bytes.set_int64_ne t 0
      (Int64.add (Bytes.get_int64_ne t 0) (Int64.mul (Int64.of_int width) golden_gamma));
    if k <= 0 then 0
    else begin
      for c = first to first + width - 1 do
        let i = c lsr 3 in
        Bytes.unsafe_set mask i
          (Char.unsafe_chr (Char.code (Bytes.get mask i) land lnot (1 lsl (c land 7))))
      done;
      width
    end
  end
  else begin
    let s = ref (Bytes.get_int64_ne t 0) and lost = ref 0 in
    for c = first to first + width - 1 do
      s := Int64.add !s golden_gamma;
      if Int64.to_int (Int64.shift_right_logical (mix64 !s) 11) < k then begin
        let i = c lsr 3 in
        Bytes.unsafe_set mask i
          (Char.unsafe_chr (Char.code (Bytes.get mask i) land lnot (1 lsl (c land 7))));
        incr lost
      end
    done;
    Bytes.set_int64_ne t 0 !s;
    !lost
  end

let exponential t rate =
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () and u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t xs =
  let a = Array.of_list xs in
  shuffle t a;
  Array.to_list a

let sample_without_replacement t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let n = min k (Array.length a) in
  Array.to_list (Array.sub a 0 n)
