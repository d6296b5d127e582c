let needs_split ~gmax ~(size : int) = size > gmax

let needs_merge ~gmin ~(size : int) = size < gmin

let split_halves rng members =
  let a = Array.of_list members in
  Atum_util.Rng.shuffle rng a;
  let n = Array.length a in
  let first = (n + 1) / 2 in
  ( Array.to_list (Array.sub a 0 first),
    Array.to_list (Array.sub a first (n - first)) )

let target_group_size ~k ~expected_n =
  if expected_n < 1 then invalid_arg "Grouping.target_group_size";
  max 1 (int_of_float (Float.round (float_of_int k *. (log (float_of_int expected_n) /. log 2.0))))

let bounds_for ~k ~expected_n =
  let gmax = max 2 (target_group_size ~k ~expected_n) in
  (max 1 (gmax / 2), gmax)

(* Binomial tail Pr[X > f], X ~ B(g, p), computed in log space. *)
let vgroup_failure_probability ~g ~f ~node_failure_rate:p =
  if p <= 0.0 then 0.0
  else if p >= 1.0 then if f >= g then 0.0 else 1.0
  else begin
    let open Atum_util.Stats in
    let log_choose n r = gammln (float_of_int (n + 1)) -. gammln (float_of_int (r + 1)) -. gammln (float_of_int (n - r + 1)) in
    let term i =
      exp
        (log_choose g i
        +. (float_of_int i *. log p)
        +. (float_of_int (g - i) *. log (1.0 -. p)))
    in
    let acc = ref 0.0 in
    for i = f + 1 to g do
      acc := !acc +. term i
    done;
    Float.min 1.0 !acc
  end

let all_groups_robust_probability ~n ~g ~f ~node_failure_rate =
  let groups = max 1 (n / max 1 g) in
  (1.0 -. vgroup_failure_probability ~g ~f ~node_failure_rate) ** float_of_int groups
