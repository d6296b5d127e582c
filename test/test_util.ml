open Atum_util

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.bits64 a) in
  let ys = List.init 32 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* Golden outputs of the splitmix64 streams: every seeded experiment
   depends on these exact values, so any change to the generator's
   representation must reproduce them bit for bit. *)
let test_rng_golden_stream () =
  let r = Rng.create 42 in
  let expected =
    [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L; 0x0C4B6B24EF01890EL;
      0xFB16A06E52EC10A7L; 0x3C30FC5FD50692C3L; 0x4782C4B4C4FDF7C9L; 0x272404A0A3926552L;
      0xC2BC249E28760CCDL; 0x3E69C285108DBB77L; 0xC3B2B51FC61EC914L; 0xE2DF09F8CCF26F14L;
      0xE664FB166D3DC14CL; 0x1494766CF71B64B6L; 0x09B78FBF46485568L; 0xDA9E8D784DB0C8F7L ]
  in
  Alcotest.(check (list int64)) "create 42" expected (List.init 16 (fun _ -> Rng.bits64 r))

let test_rng_golden_split_copy () =
  let r = Rng.create 7 in
  let s = Rng.split r in
  let c = Rng.copy s in
  let split_stream =
    [ 0x8C67274BD4DA9230L; 0x5B0D33EBB04E4C17L; 0x2F9905D0777B6632L; 0x55471384BB8E0572L ]
  in
  Alcotest.(check (list int64)) "split" split_stream (List.init 4 (fun _ -> Rng.bits64 s));
  Alcotest.(check (list int64))
    "parent after split" [ 0x4D58FBD282EAF415L; 0xF0E521070CC03750L ]
    (List.init 2 (fun _ -> Rng.bits64 r));
  Alcotest.(check (list int64)) "copy replays" split_stream (List.init 4 (fun _ -> Rng.bits64 c));
  Alcotest.(check int) "int" 52 (Rng.int r 1000);
  Alcotest.(check int) "int small" 5 (Rng.int r 7);
  Alcotest.(check (float 0.0)) "float" 0x1.359ae713428abp-1 (Rng.float r 1.0);
  Alcotest.(check bool) "bernoulli" false (Rng.bernoulli r 0.5)

(* Minor-heap words allocated by [f ()].  The first reading stays
   unboxed across the call, so the probe itself allocates nothing. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The loss draw runs once per simulated message: it must not
   allocate.  The measurement is taken twice and must agree before the
   bound is asserted, so a noisy probe fails loudly instead of
   passing by luck. *)
let test_rng_bernoulli_no_alloc () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  let draws () =
    for _ = 1 to 10_000 do
      if Rng.bernoulli r 0.3 then incr hits
    done
  in
  let a = minor_words_of draws in
  let b = minor_words_of draws in
  Alcotest.(check (float 0.0)) "stable measurement" a b;
  Alcotest.(check (float 0.0)) "0 words per draw" 0.0 a

(* A row drawn at once: the same mask, loss count and next draw as the
   per-cell [bernoulli_below] loop, for every row width from 0 to 70
   cells, at a byte-aligned and an unaligned first cell, and for the
   thresholds that never hit (0), almost never (1), half the time and
   always (2^53).  The byte past the row must stay untouched. *)
let test_rng_bernoulli_row () =
  let thresholds = [ 0; 1; Rng.bernoulli_threshold 0.5; 1 lsl 53 ] in
  List.iter
    (fun k ->
      for width = 0 to 70 do
        List.iter
          (fun first ->
            let ctx = Printf.sprintf "k=%d width=%d first=%d" k width first in
            let row = Rng.create (width + (71 * first)) in
            let cell = Rng.copy row in
            let bytes = ((first + width + 7) / 8) + 1 in
            let got = Bytes.make bytes '\255' and want = Bytes.make bytes '\255' in
            let lost = Rng.bernoulli_row row k got ~first ~width in
            let want_lost = ref 0 in
            for c = first to first + width - 1 do
              if Rng.bernoulli_below cell k then begin
                incr want_lost;
                Bytes.set want (c / 8)
                  (Char.chr (Char.code (Bytes.get want (c / 8)) land lnot (1 lsl (c mod 8))))
              end
            done;
            Alcotest.(check string) (ctx ^ ": mask") (Bytes.to_string want) (Bytes.to_string got);
            Alcotest.(check int) (ctx ^ ": losses") !want_lost lost;
            Alcotest.(check int64) (ctx ^ ": next draw") (Rng.bits64 cell) (Rng.bits64 row))
          [ 0; 5 ]
      done)
    thresholds;
  let r = Rng.create 9 and mask = Bytes.make 9 '\255' in
  let k = Rng.bernoulli_threshold 0.001 in
  let rows () =
    for _ = 1 to 1_000 do
      ignore (Rng.bernoulli_row r k mask ~first:3 ~width:64 : int)
    done
  in
  let a = minor_words_of rows in
  let b = minor_words_of rows in
  Alcotest.(check (float 0.0)) "stable measurement" a b;
  Alcotest.(check (float 0.0)) "0 words per row" 0.0 a

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of range"
  done

let test_rng_int_uniformish () =
  let rng = Rng.create 5 in
  let counts = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "chi2 accepts uniform"
    true
    (Stats.chi2_uniform_test ~confidence:0.999 counts)

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of range"
  done

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p close to 0.3" true (abs_float (p -. 0.3) < 0.01)

let test_rng_exponential_mean () =
  let rng = Rng.create 17 in
  let xs = List.init 50_000 (fun _ -> Rng.exponential rng 2.0) in
  Alcotest.(check bool) "mean ~ 0.5" true (abs_float (Stats.mean xs -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 19 in
  let xs = List.init 50_000 (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  Alcotest.(check bool) "mean ~ 3" true (abs_float (Stats.mean xs -. 3.0) < 0.05);
  Alcotest.(check bool) "stddev ~ 2" true (abs_float (Stats.stddev xs -. 2.0) < 0.05)

let test_rng_lognormal_median () =
  let rng = Rng.create 41 in
  let xs = List.init 40_000 (fun _ -> Rng.lognormal rng ~mu:(log 2.0) ~sigma:0.5) in
  (* The median of a lognormal is exp(mu). *)
  Alcotest.(check bool) "median ~ 2.0" true (abs_float (Stats.median xs -. 2.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 29 in
  let xs = List.init 20 Fun.id in
  let s = Rng.sample_without_replacement rng 5 xs in
  Alcotest.(check int) "size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "member" true (List.mem x xs)) s

let test_rng_sample_all_when_k_large () =
  let rng = Rng.create 31 in
  let s = Rng.sample_without_replacement rng 50 [ 1; 2; 3 ] in
  Alcotest.(check int) "whole list" 3 (List.length s)

let test_rng_pick_singleton () =
  let rng = Rng.create 37 in
  Alcotest.(check int) "only element" 9 (Rng.pick rng [ 9 ])

let test_rng_pick_empty () =
  let rng = Rng.create 37 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let pop_all q n = List.init n (fun _ -> Pqueue.pop q)

(* [Some (priority, value)] of the minimum, popping it; [None] when empty. *)
let pop_min q =
  if Pqueue.is_empty q then None
  else begin
    let p = Pqueue.min_prio q in
    Some (p, Pqueue.pop q)
  end

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 3;
  Pqueue.push q 1.0 1;
  Pqueue.push q 2.0 2;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (pop_all q 3)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q 1.0 x) [ 10; 20; 30 ];
  Alcotest.(check (list int)) "insertion order on ties" [ 10; 20; 30 ] (pop_all q 3)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop raises" (Invalid_argument "Pqueue.pop: empty") (fun () ->
      ignore (Pqueue.pop q));
  Alcotest.check_raises "min_prio raises" (Invalid_argument "Pqueue.min_prio: empty") (fun () ->
      ignore (Pqueue.min_prio q))

let test_pqueue_peek_does_not_remove () =
  let q = Pqueue.create () in
  Pqueue.push q 5.0 42;
  Alcotest.(check (float 0.0)) "peek" 5.0 (Pqueue.min_prio q);
  Alcotest.(check int) "still there" 1 (Pqueue.size q)

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 2.0 2;
  Pqueue.push q 1.0 1;
  Alcotest.(check bool) "min first" true (pop_min q = Some (1.0, 1));
  Pqueue.push q 0.5 0;
  Alcotest.(check bool) "new min" true (pop_min q = Some (0.5, 0));
  Alcotest.(check bool) "rest" true (pop_min q = Some (2.0, 2))

let test_pqueue_clear () =
  let q = Pqueue.create () in
  for i = 1 to 10 do
    Pqueue.push q (float_of_int i) i
  done;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (pair (float_range 0.0 100.0) small_int))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push q p v) items;
      let rec drain acc =
        match pop_min q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let prios = drain [] in
      List.sort compare prios = prios)

let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches a sorted-list model under interleaved ops" ~count:150
    QCheck.(list (option (pair (float_range 0.0 50.0) small_int)))
    (fun ops ->
      (* Some op = push, None = pop; compare against a stable-sorted model. *)
      let q = Pqueue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some (p, v) ->
            Pqueue.push q p v;
            model := (p, !seq, v) :: !model;
            incr seq
          | None ->
            let expected =
              match List.sort compare (List.rev !model) with
              | [] -> None
              | ((p, _, v) as entry) :: _ ->
                model := List.filter (fun e -> e <> entry) !model;
                Some (p, v)
            in
            if pop_min q <> expected then ok := false)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Btree                                                               *)
(* ------------------------------------------------------------------ *)

let make_btree ?(degree = 3) () = Btree.create ~degree ~cmp:compare ()

let btree_ok bt =
  match Btree.check_invariants bt with Ok () -> () | Error e -> Alcotest.fail e

let test_btree_empty () =
  let bt : (int, string) Btree.t = make_btree () in
  Alcotest.(check bool) "empty" true (Btree.is_empty bt);
  Alcotest.(check (option string)) "find" None (Btree.find bt 1);
  Alcotest.(check bool) "min" true (Btree.min_binding bt = None);
  Alcotest.(check int) "height" 0 (Btree.height bt);
  btree_ok bt

let test_btree_insert_find () =
  let bt = make_btree () in
  List.iter (fun i -> Btree.insert bt i (string_of_int i)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  btree_ok bt;
  Alcotest.(check int) "size" 10 (Btree.size bt);
  for i = 0 to 9 do
    Alcotest.(check (option string)) "find" (Some (string_of_int i)) (Btree.find bt i)
  done;
  Alcotest.(check (option string)) "absent" None (Btree.find bt 99)

let test_btree_replace () =
  let bt = make_btree () in
  Btree.insert bt 1 "a";
  Btree.insert bt 1 "b";
  Alcotest.(check int) "no duplicate" 1 (Btree.size bt);
  Alcotest.(check (option string)) "replaced" (Some "b") (Btree.find bt 1)

let test_btree_ordered_iteration () =
  let bt = make_btree () in
  let input = [ 42; 7; 13; 99; 1; 56; 28; 3; 77; 64 ] in
  List.iter (fun i -> Btree.insert bt i i) input;
  Alcotest.(check (list int)) "sorted" (List.sort compare input)
    (List.map fst (Btree.to_list bt));
  Alcotest.(check bool) "min" true (Btree.min_binding bt = Some (1, 1));
  Alcotest.(check bool) "max" true (Btree.max_binding bt = Some (99, 99))

let test_btree_range () =
  let bt = make_btree () in
  for i = 0 to 50 do
    Btree.insert bt i (i * 2)
  done;
  Alcotest.(check (list (pair int int))) "inclusive range"
    [ (10, 20); (11, 22); (12, 24) ]
    (Btree.range bt ~lo:10 ~hi:12);
  Alcotest.(check int) "full range" 51 (List.length (Btree.range bt ~lo:0 ~hi:50));
  Alcotest.(check (list (pair int int))) "empty range" [] (Btree.range bt ~lo:60 ~hi:70)

let test_btree_delete () =
  let bt = make_btree () in
  for i = 0 to 100 do
    Btree.insert bt i i
  done;
  btree_ok bt;
  (* remove every third key *)
  for i = 0 to 33 do
    Btree.remove bt (i * 3)
  done;
  btree_ok bt;
  Alcotest.(check int) "size" 67 (Btree.size bt);
  for i = 0 to 100 do
    let expected = if i mod 3 = 0 then None else Some i in
    Alcotest.(check (option int)) (Printf.sprintf "find %d" i) expected (Btree.find bt i)
  done

let test_btree_delete_everything () =
  let bt = make_btree () in
  let rng = Rng.create 7 in
  let keys = Array.init 200 Fun.id in
  Rng.shuffle rng keys;
  Array.iter (fun k -> Btree.insert bt k k) keys;
  Rng.shuffle rng keys;
  Array.iter
    (fun k ->
      Btree.remove bt k;
      (match Btree.check_invariants bt with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "after removing %d: %s" k e)))
    keys;
  Alcotest.(check bool) "empty again" true (Btree.is_empty bt)

let test_btree_height_logarithmic () =
  let bt = Btree.create ~degree:8 ~cmp:compare () in
  for i = 1 to 10_000 do
    Btree.insert bt i i
  done;
  btree_ok bt;
  (* with degree 8, height of 10k keys is at most log_8(10k) + 1 ~ 5 *)
  Alcotest.(check bool)
    (Printf.sprintf "height %d is logarithmic" (Btree.height bt))
    true
    (Btree.height bt <= 6)

let test_btree_empty_range_bounds () =
  let bt = make_btree () in
  for i = 0 to 20 do
    Btree.insert bt i i
  done;
  Alcotest.(check (list (pair int int))) "inverted bounds" [] (Btree.range bt ~lo:15 ~hi:3);
  Alcotest.(check (list (pair int int))) "point range" [ (7, 7) ] (Btree.range bt ~lo:7 ~hi:7)

let test_btree_degree_validation () =
  Alcotest.check_raises "degree too small"
    (Invalid_argument "Btree.create: degree must be at least 2") (fun () ->
      ignore (Btree.create ~degree:1 ~cmp:compare ()))

let prop_btree_model =
  QCheck.Test.make ~name:"btree behaves like a map under random insert/remove" ~count:120
    QCheck.(pair (int_range 2 6) (list (pair bool (int_range 0 60))))
    (fun (degree, ops) ->
      let bt = Btree.create ~degree ~cmp:compare () in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            Btree.insert bt k (k * 7);
            Hashtbl.replace model k (k * 7)
          end
          else begin
            Btree.remove bt k;
            Hashtbl.remove model k
          end;
          Btree.check_invariants bt = Ok ()
          && Btree.size bt = Hashtbl.length model
          && Hashtbl.fold (fun k v acc -> acc && Btree.find bt k = Some v) model true)
        ops)

let prop_btree_iteration_sorted =
  QCheck.Test.make ~name:"btree iteration is always sorted" ~count:100
    QCheck.(list small_int)
    (fun keys ->
      let bt = make_btree () in
      List.iter (fun k -> Btree.insert bt k k) keys;
      let out = List.map fst (Btree.to_list bt) in
      out = List.sort_uniq compare keys)

(* Batched mixed workload with range queries: apply a whole batch of
   inserts/deletes, then check the invariants once per batch (the
   snapshot-codec usage pattern: bulk load, then serve reads) and
   cross-check a random range query against a sorted model. *)
let prop_btree_batches_and_ranges =
  QCheck.Test.make ~name:"btree ranges stay correct across insert/delete batches" ~count:80
    QCheck.(
      pair (int_range 2 6)
        (small_list (triple (small_list (pair bool (int_range 0 80))) (int_range 0 80)
           (int_range 0 80))))
    (fun (degree, batches) ->
      let bt = Btree.create ~degree ~cmp:compare () in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun (ops, a, b) ->
          List.iter
            (fun (is_insert, k) ->
              if is_insert then begin
                Btree.insert bt k (k + 1);
                Hashtbl.replace model k (k + 1)
              end
              else begin
                Btree.remove bt k;
                Hashtbl.remove model k
              end)
            ops;
          let lo = min a b and hi = max a b in
          let expect =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> if k >= lo && k <= hi then (k, v) :: acc else acc)
                 model [])
          in
          Btree.check_invariants bt = Ok () && Btree.range bt ~lo ~hi = expect)
        batches)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-6) a b = abs_float (a -. b) < eps

let test_stats_mean () = Alcotest.(check bool) "mean" true (feq (Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0)

let test_stats_mean_empty () = Alcotest.(check bool) "mean []" true (Stats.mean [] = 0.0)

let test_stats_stddev () =
  Alcotest.(check bool) "stddev" true (feq (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]) 2.138089935)

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check bool) "p0" true (feq (Stats.percentile xs 0.0) 1.0);
  Alcotest.(check bool) "p50" true (feq (Stats.percentile xs 50.0) 3.0);
  Alcotest.(check bool) "p100" true (feq (Stats.percentile xs 100.0) 5.0);
  Alcotest.(check bool) "p25" true (feq (Stats.percentile xs 25.0) 2.0)

let test_stats_median_interpolates () =
  Alcotest.(check bool) "median of 4" true (feq (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]) 2.5)

let test_stats_cdf () =
  let pts = Stats.cdf [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check bool) "cdf shape" true
    (pts = [ (1.0, 1.0 /. 3.0); (2.0, 2.0 /. 3.0); (3.0, 1.0) ])

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:4 ~lo:0.0 ~hi:4.0 [ 0.5; 1.5; 1.6; 3.9; -1.0; 9.0 ] in
  Alcotest.(check (array int)) "buckets" [| 2; 2; 0; 2 |] h

let test_gammln_factorial () =
  (* Gamma(n) = (n-1)! *)
  Alcotest.(check bool) "Gamma(5)=24" true (feq ~eps:1e-6 (exp (Stats.gammln 5.0)) 24.0);
  Alcotest.(check bool) "Gamma(1)=1" true (feq ~eps:1e-6 (exp (Stats.gammln 1.0)) 1.0)

let test_gamma_q_edge_cases () =
  (* Boundary behaviour of Q(a, x) around x = 0: the sign test that
     replaced float-literal equality (lint rule F001) must keep
     Q(a, 0) = 1 exactly and stay continuous just right of zero. *)
  Alcotest.(check (float 0.0)) "Q(a,0) = 1 exactly" 1.0 (Stats.regularized_gamma_q 2.5 0.0);
  Alcotest.(check bool) "Q(a,eps) ~ 1" true
    (feq ~eps:1e-6 (Stats.regularized_gamma_q 2.5 1e-12) 1.0);
  Alcotest.(check bool) "Q(a,x) decreases in x" true
    (Stats.regularized_gamma_q 2.5 1.0 > Stats.regularized_gamma_q 2.5 4.0);
  Alcotest.(check bool) "Q(a,large) ~ 0" true
    (Stats.regularized_gamma_q 2.5 1e3 < 1e-9);
  (* Q(1, x) = exp(-x) in closed form, on both sides of the series /
     continued-fraction split at x = a + 1. *)
  Alcotest.(check bool) "Q(1,0.5) = exp(-0.5)" true
    (feq ~eps:1e-9 (Stats.regularized_gamma_q 1.0 0.5) (exp (-0.5)));
  Alcotest.(check bool) "Q(1,5) = exp(-5)" true
    (feq ~eps:1e-9 (Stats.regularized_gamma_q 1.0 5.0) (exp (-5.0)))

let test_chi2_known_values () =
  (* chi2 CDF complement checked against standard tables. *)
  Alcotest.(check bool) "df=1, x=3.841 -> p ~ 0.05" true
    (feq ~eps:1e-3 (Stats.chi2_cdf_complement ~df:1 3.841) 0.05);
  Alcotest.(check bool) "df=10, x=18.307 -> p ~ 0.05" true
    (feq ~eps:1e-3 (Stats.chi2_cdf_complement ~df:10 18.307) 0.05);
  Alcotest.(check bool) "df=5, x=15.086 -> p ~ 0.01" true
    (feq ~eps:1e-3 (Stats.chi2_cdf_complement ~df:5 15.086) 0.01)

let test_chi2_statistic () =
  let x2 = Stats.chi2_statistic ~observed:[| 10; 20 |] ~expected:[| 15.0; 15.0 |] in
  Alcotest.(check bool) "stat" true (feq x2 (25.0 /. 15.0 *. 2.0))

let test_chi2_uniform_accepts_uniform () =
  Alcotest.(check bool) "uniform accepted" true
    (Stats.chi2_uniform_test ~confidence:0.99 [| 100; 101; 99; 100 |])

let test_chi2_uniform_rejects_skewed () =
  Alcotest.(check bool) "skew rejected" false
    (Stats.chi2_uniform_test ~confidence:0.99 [| 400; 10; 10; 10 |])

let test_stats_histogram_rejects_bad_bounds () =
  Alcotest.check_raises "hi = lo"
    (Invalid_argument "Stats.histogram: hi must exceed lo") (fun () ->
      ignore (Stats.histogram ~buckets:4 ~lo:1.0 ~hi:1.0 [ 1.0 ]));
  Alcotest.check_raises "hi < lo"
    (Invalid_argument "Stats.histogram: hi must exceed lo") (fun () ->
      ignore (Stats.histogram ~buckets:4 ~lo:2.0 ~hi:1.0 [ 1.0 ]))

let test_stats_percentile_negative_values () =
  (* Regression: sorting must use a float comparison, so mixed-sign
     samples land in numeric (not structural) order. *)
  let xs = [ 3.0; -7.5; 0.0; -1.25; 12.0 ] in
  Alcotest.(check bool) "p0 is min" true (feq (Stats.percentile xs 0.0) (-7.5));
  Alcotest.(check bool) "p50 is median" true (feq (Stats.percentile xs 50.0) 0.0);
  Alcotest.(check bool) "p100 is max" true (feq (Stats.percentile xs 100.0) 12.0);
  match Stats.cdf xs with
  | (first, _) :: _ -> Alcotest.(check bool) "cdf starts at min" true (feq first (-7.5))
  | [] -> Alcotest.fail "empty cdf"

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let json_examples =
  Json.
    [
      Null;
      Bool true;
      Int (-42);
      Int max_int;
      Float 0.1;
      Float (-1.5e300);
      Float 1234567.0;
      String "plain";
      String "esc \"quotes\" \\ back \n tab \t ctrl \x01 end";
      List [ Int 1; Null; String "x" ];
      Obj [ ("a", Int 1); ("nested", Obj [ ("b", List [ Bool false ]) ]); ("", Null) ];
    ]

let test_json_roundtrip_examples () =
  List.iter
    (fun j ->
      let compact = Json.to_string ~pretty:false j in
      let pretty = Json.to_string j in
      (match Json.of_string compact with
      | Ok j' -> Alcotest.(check bool) ("compact: " ^ compact) true (Json.equal j j')
      | Error e -> Alcotest.failf "compact reparse of %s failed: %s" compact e);
      match Json.of_string pretty with
      | Ok j' -> Alcotest.(check bool) ("pretty: " ^ compact) true (Json.equal j j')
      | Error e -> Alcotest.failf "pretty reparse failed: %s" e)
    json_examples

(* The writer's exact bytes, as the original closure-based writer
   produced them: every WAL frame and snapshot depends on them. *)
let json_golden =
  Json.
    [
      (Null, "null"); (Bool true, "true"); (Bool false, "false"); (Int 0, "0"); (Int (-42), "-42");
      (Int max_int, "4611686018427387903"); (Int min_int, "-4611686018427387904");
      (Float 0.0, "0.0"); (Float (-0.0), "-0.0"); (Float 1.5, "1.5"); (Float (-2.0), "-2.0");
      (Float 1e15, "1e+15"); (Float 1e20, "1e+20"); (Float 0.1, "0.1");
      (Float (1. /. 3.), "0.33333333333333331"); (Float 1e-300, "1e-300");
      (Float nan, "null"); (Float infinity, "null"); (Float neg_infinity, "null");
      (Float 123456789012.0, "123456789012.0"); (String "", "\"\""); (String "plain ascii", "\"plain ascii\"");
      ( String "q\" b\\ n\n r\r t\t bel\007 nul\000 us\031 del\127 / \xc3\xa9",
        "\"q\\\" b\\\\ n\\n r\\r t\\t bel\\u0007 nul\\u0000 us\\u001f del\127 / \195\169\"" );
      (* Every control character: [\t], [\n] and [\r] keep their short
         escapes, the rest become [\u00XX] in lowercase hex. *)
      ( String ("<" ^ String.init 32 Char.chr ^ ">"),
        "\"<\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f>\""
      );
      (List [], "[]"); (List [ Int 1 ], "[1]");
      (List [ List []; Obj []; List [ Null; Bool false ] ], "[[],{},[null,false]]");
      (Obj [], "{}"); (Obj [ ("", Null) ], "{\"\":null}");
      ( Obj
          [
            ("k\"ey", String "v");
            ("nested", Obj [ ("a", List [ Float 2.5; Obj [ ("b", Obj []) ]; String "x\ny" ]) ]);
          ],
        "{\"k\\\"ey\":\"v\",\"nested\":{\"a\":[2.5,{\"b\":{}},\"x\\ny\"]}}" );
    ]

let test_json_writer_golden () =
  List.iter
    (fun (j, expected) -> Alcotest.(check string) expected expected (Json.to_string ~pretty:false j))
    json_golden;
  (* Escaping a control character allocates nothing once the buffer
     has grown to size. *)
  let buf = Buffer.create 256 in
  let record = Json.String "put\001owner\001name\0011.5\00110\0013" in
  let write () =
    for _ = 1 to 100 do
      Buffer.clear buf;
      Json.to_buffer ~pretty:false buf record
    done
  in
  let a = minor_words_of write in
  let b = minor_words_of write in
  Alcotest.(check (float 0.0)) "stable measurement" a b;
  Alcotest.(check (float 0.0)) "escaping allocates nothing" 0.0 a;
  (* The pretty path shares the writer; pin its indentation too. *)
  Alcotest.(check string) "pretty"
    "[\n  null,\n  [],\n  {},\n  [\n    1\n  ],\n  {\n    \"k\": {\n      \"a\": [\n        2.5,\n        \"x\"\n      ]\n    },\n    \"e\": {}\n  }\n]"
    (Json.to_string
       Json.(
         List
           [
             Null; List []; Obj []; List [ Int 1 ];
             Obj [ ("k", Obj [ ("a", List [ Float 2.5; String "x" ]) ]); ("e", Obj []) ];
           ]))

let test_json_float_format () =
  Alcotest.(check string) "integral floats keep a point" "2.0"
    (Json.to_string ~pretty:false (Json.Float 2.0));
  Alcotest.(check string) "short decimals stay short" "0.25"
    (Json.to_string ~pretty:false (Json.Float 0.25));
  Alcotest.(check string) "non-finite becomes null" "null"
    (Json.to_string ~pretty:false (Json.Float nan));
  Alcotest.(check string) "infinity becomes null" "null"
    (Json.to_string ~pretty:false (Json.Float infinity));
  (* Round-trip precision even for awkward doubles. *)
  let x = 0.1 +. 0.2 in
  match Json.of_string (Json.to_string ~pretty:false (Json.Float x)) with
  | Ok (Json.Float y) -> Alcotest.(check bool) "exact bits" true (x = y)
  | _ -> Alcotest.fail "float did not reparse as a float"

let test_json_member () =
  let j = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  Alcotest.(check bool) "present" true (Json.member "a" j = Some (Json.Int 1));
  Alcotest.(check bool) "null member present" true (Json.member "b" j = Some Json.Null);
  Alcotest.(check bool) "absent" true (Json.member "c" j = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" (Json.Int 3) = None)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* WAL-recovery hardening: truncated prefixes of valid documents must
   come back as [Error], never raise or loop. *)
let test_json_truncated_prefixes () =
  let doc = Json.to_string ~pretty:false (Json.Obj [
      ("t", Json.String "deliver");
      ("bid", Json.Int 17);
      ("body", Json.String "xy\"z\\");
      ("nested", Json.List [ Json.Obj [ ("f", Json.Float 1.5) ]; Json.Null; Json.Bool true ]);
    ])
  in
  for keep = 0 to String.length doc - 1 do
    match Json.of_string (String.sub doc 0 keep) with
    | Ok _ -> Alcotest.failf "accepted truncated prefix of length %d" keep
    | Error _ -> ()
  done;
  match Json.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected the full document: %s" e

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_json_duplicate_keys_rejected () =
  (match Json.of_string "{\"a\": 1, \"a\": 2}" with
  | Ok _ -> Alcotest.fail "accepted duplicate keys"
  | Error e ->
    Alcotest.(check bool) "error names the cause" true (contains_sub e "duplicate"));
  (* Same key in sibling objects is fine. *)
  match Json.of_string "[{\"a\": 1}, {\"a\": 2}]" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected sibling keys: %s" e

let test_json_deep_nesting_bounded () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (* Far past the bound: must be a typed error, not a stack overflow. *)
  (match Json.of_string (deep 100_000) with
  | Ok _ -> Alcotest.fail "accepted pathological nesting"
  | Error _ -> ());
  (* Unclosed deep nesting (the truncated-garbage shape). *)
  (match Json.of_string (String.make 100_000 '[') with
  | Ok _ -> Alcotest.fail "accepted unclosed nesting"
  | Error _ -> ());
  (* Reasonable nesting still parses. *)
  match Json.of_string (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected 100-deep nesting: %s" e

let prop_json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                map (fun f -> Json.Float f) (float_bound_inclusive 1e9);
                map (fun s -> Json.String s) (string_size (0 -- 12));
              ]
          in
          if n <= 0 then leaf
          else
            frequency
              [
                (3, leaf);
                (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  (* the parser rejects duplicate keys, so generate
                     objects with each key at most once *)
                  map
                    (fun kvs ->
                      let seen = Hashtbl.create 8 in
                      Json.Obj
                        (List.filter
                           (fun (k, _) ->
                             if Hashtbl.mem seen k then false
                             else (Hashtbl.add seen k (); true))
                           kvs))
                    (list_size (0 -- 4)
                       (pair (string_size (0 -- 6)) (self (n / 2)))) );
              ]))
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make ~print:(fun j -> Json.to_string j) gen)
    (fun j ->
      match Json.of_string (Json.to_string ~pretty:false j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.0) 100.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let mn = List.fold_left min infinity xs and mx = List.fold_left max neg_infinity xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      let mn = List.fold_left min infinity xs and mx = List.fold_left max neg_infinity xs in
      m >= mn -. 1e-9 && m <= mx +. 1e-9)

(* --- Bitset ------------------------------------------------------------ *)

let test_bitset_basics () =
  let b = Bitset.create () in
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check (list int)) "empty to_list" [] (Bitset.to_list b);
  List.iter (Bitset.set b) [ 5; 0; 129; 5; 64 ];
  Alcotest.(check int) "cardinal dedups" 4 (Bitset.cardinal b);
  Alcotest.(check (list int)) "ascending" [ 0; 5; 64; 129 ] (Bitset.to_list b);
  Alcotest.(check bool) "mem set" true (Bitset.mem b 64);
  Alcotest.(check bool) "mem unset" false (Bitset.mem b 63);
  Bitset.unset b 64;
  Bitset.unset b 4096 (* beyond backing storage: no-op *);
  Alcotest.(check (list int)) "after unset" [ 0; 5; 129 ] (Bitset.to_list b);
  Alcotest.check_raises "negative set"
    (Invalid_argument "Bitset.set: negative index") (fun () -> Bitset.set b (-1))

let test_bitset_iter_matches_to_list () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 300; 2; 77; 31; 32; 33 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "iter order" (Bitset.to_list b) (List.rev !seen)

let test_bitset_clear () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 1; 2; 3 ];
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b);
  Alcotest.(check (list int)) "cleared list" [] (Bitset.to_list b);
  Bitset.set b 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Bitset.to_list b)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:200
    QCheck.(small_list (pair bool (int_range 0 500)))
    (fun ops ->
      let b = Bitset.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then (Bitset.set b i; Hashtbl.replace model i ())
          else (Bitset.unset b i; Hashtbl.remove model i))
        ops;
      let expect =
        Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
      in
      Bitset.to_list b = expect && Bitset.cardinal b = List.length expect)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "golden split/copy" `Quick test_rng_golden_split_copy;
          Alcotest.test_case "bernoulli allocates nothing" `Quick test_rng_bernoulli_no_alloc;
          Alcotest.test_case "bernoulli row" `Quick test_rng_bernoulli_row;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniformish;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "lognormal median" `Quick test_rng_lognormal_median;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "sample clamps k" `Quick test_rng_sample_all_when_k_large;
          Alcotest.test_case "pick singleton" `Quick test_rng_pick_singleton;
          Alcotest.test_case "pick empty raises" `Quick test_rng_pick_empty;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "peek" `Quick test_pqueue_peek_does_not_remove;
          Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
          QCheck_alcotest.to_alcotest prop_pqueue_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "replace" `Quick test_btree_replace;
          Alcotest.test_case "ordered iteration" `Quick test_btree_ordered_iteration;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "delete everything" `Quick test_btree_delete_everything;
          Alcotest.test_case "logarithmic height" `Quick test_btree_height_logarithmic;
          Alcotest.test_case "degree validation" `Quick test_btree_degree_validation;
          Alcotest.test_case "range bounds" `Quick test_btree_empty_range_bounds;
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest prop_btree_iteration_sorted;
          QCheck_alcotest.to_alcotest prop_btree_batches_and_ranges;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "iter matches to_list" `Quick test_bitset_iter_matches_to_list;
          Alcotest.test_case "clear" `Quick test_bitset_clear;
          QCheck_alcotest.to_alcotest prop_bitset_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "median interpolates" `Quick test_stats_median_interpolates;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram bad bounds" `Quick
            test_stats_histogram_rejects_bad_bounds;
          Alcotest.test_case "percentile negatives" `Quick
            test_stats_percentile_negative_values;
          Alcotest.test_case "gammln factorial" `Quick test_gammln_factorial;
          Alcotest.test_case "gamma Q edge cases" `Quick test_gamma_q_edge_cases;
          Alcotest.test_case "chi2 table values" `Quick test_chi2_known_values;
          Alcotest.test_case "chi2 statistic" `Quick test_chi2_statistic;
          Alcotest.test_case "chi2 accepts uniform" `Quick test_chi2_uniform_accepts_uniform;
          Alcotest.test_case "chi2 rejects skew" `Quick test_chi2_uniform_rejects_skewed;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
          QCheck_alcotest.to_alcotest prop_mean_bounds;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip examples" `Quick test_json_roundtrip_examples;
          Alcotest.test_case "writer golden" `Quick test_json_writer_golden;
          Alcotest.test_case "float format" `Quick test_json_float_format;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "truncated prefixes" `Quick test_json_truncated_prefixes;
          Alcotest.test_case "duplicate keys" `Quick test_json_duplicate_keys_rejected;
          Alcotest.test_case "deep nesting bounded" `Quick test_json_deep_nesting_bounded;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
    ]
