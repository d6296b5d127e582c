(* Binary min-heap of int values keyed by (float priority, insertion
   sequence), as three parallel arrays that hold no pointers: an
   unboxed float array and two int arrays.

   Sifting moves a hole rather than swapping: the entry being placed
   stays in locals and is written once, where it lands.  No write
   here goes through the GC's write barrier, and the only allocation
   is the amortized doubling of the arrays. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { prio = [||]; seq = [||]; value = [||]; len = 0; next_seq = 0 }

let is_empty q = q.len = 0
let size q = q.len

let grow q =
  let cap = max 16 (2 * Array.length q.prio) in
  let prio = Array.make cap 0.0 and seq = Array.make cap 0 and value = Array.make cap 0 in
  Array.blit q.prio 0 prio 0 q.len;
  Array.blit q.seq 0 seq 0 q.len;
  Array.blit q.value 0 value 0 q.len;
  q.prio <- prio;
  q.seq <- seq;
  q.value <- value

let reserve q =
  if q.len = Array.length q.prio then grow q;
  q.len

(* The new entry carries the largest sequence number yet, so it
   rises only past strictly greater priorities: on a priority tie the
   (priority, seq) order already keeps it below its parent. *)
let commit q v =
  let p = q.prio.(q.len) and s = q.next_seq in
  q.next_seq <- s + 1;
  let i = ref q.len in
  q.len <- q.len + 1;
  while !i > 0 && p < q.prio.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    q.prio.(!i) <- q.prio.(parent);
    q.seq.(!i) <- q.seq.(parent);
    q.value.(!i) <- q.value.(parent);
    i := parent
  done;
  q.prio.(!i) <- p;
  q.seq.(!i) <- s;
  q.value.(!i) <- v

let push q prio v =
  let i = reserve q in
  q.prio.(i) <- prio;
  commit q v

(* Entry [i] orders before entry [j]. *)
let[@inline] before q i j =
  q.prio.(i) < q.prio.(j) || (q.prio.(i) = q.prio.(j) && q.seq.(i) < q.seq.(j))

let pop q =
  if q.len = 0 then invalid_arg "Pqueue.pop: empty";
  let top = q.value.(0) in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    (* Re-seat the last entry, sifting the hole down from the root. *)
    let p = q.prio.(n) and s = q.seq.(n) and v = q.value.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c = if r < n && before q r l then r else l in
        if q.prio.(c) < p || (q.prio.(c) = p && q.seq.(c) < s) then begin
          q.prio.(!i) <- q.prio.(c);
          q.seq.(!i) <- q.seq.(c);
          q.value.(!i) <- q.value.(c);
          i := c
        end
        else sifting := false
      end
    done;
    q.prio.(!i) <- p;
    q.seq.(!i) <- s;
    q.value.(!i) <- v
  end;
  top

let min_prio q =
  if q.len = 0 then invalid_arg "Pqueue.min_prio: empty";
  q.prio.(0)

let clear q =
  q.len <- 0;
  q.prio <- [||];
  q.seq <- [||];
  q.value <- [||]
