type t = { mutable rows : (string * int * int) list (* newest first *) }

let create () = { rows = [] }

let add t what ~attempted ~failed =
  if attempted < 0 || failed < 0 || failed > attempted then
    invalid_arg
      (Printf.sprintf "Tally.add %s: %d failed of %d attempted" what failed attempted);
  t.rows <- (what, attempted, failed) :: t.rows

let rows t = List.rev t.rows
let attempted t = List.fold_left (fun acc (_, a, _) -> acc + a) 0 t.rows
let failed t = List.fold_left (fun acc (_, _, f) -> acc + f) 0 t.rows

let ratio t =
  let a = attempted t in
  if a = 0 then 0.0 else float_of_int (failed t) /. float_of_int a

let sum ts =
  let all = List.concat_map rows ts in
  let names = List.fold_left (fun acc (w, _, _) -> if List.mem w acc then acc else w :: acc) [] all in
  let t = create () in
  List.iter
    (fun what ->
      let mine = List.filter (fun (w, _, _) -> w = what) all in
      add t what
        ~attempted:(List.fold_left (fun acc (_, a, _) -> acc + a) 0 mine)
        ~failed:(List.fold_left (fun acc (_, _, f) -> acc + f) 0 mine))
    (List.rev names);
  t
