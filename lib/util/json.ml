type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The C primitive behind [Printf]'s %f and %g conversions: the same
   bytes, without running the format interpreter per number. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then format_float "%.1f" x
  else begin
    let s = format_float "%.12g" x in
    if float_of_string s = x then s else format_float "%.17g" x
  end

(* [string_of_int] digits, written straight into the buffer. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* Fast path: most strings need no escaping and go in with one blit. *)
let rec plain s i =
  i >= String.length s
  || match String.unsafe_get s i with '"' | '\\' | '\000' .. '\031' -> false | _ -> plain s (i + 1)

let hex_digits = "0123456789abcdef"

(* Control characters without a short escape become [\u00XX] through
   the digit table, so escaping allocates nothing: every AShare WAL
   record carries [\x01] separators. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  if plain s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\000' .. '\031' as c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]
      | c -> Buffer.add_char buf c
    done;
  Buffer.add_char buf '"'

(* The writer is a set of top-level recursive functions rather than
   closures over [buf]: the compact path (every WAL record and
   snapshot) then allocates nothing but the floats it formats. *)
let newline buf ~pretty depth =
  if pretty then begin
    Buffer.add_char buf '\n';
    for _ = 1 to depth do Buffer.add_string buf "  " done
  end

let add_float buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else Buffer.add_string buf (float_to_string x)

let add_string = escape_string

let rec write buf ~pretty depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> add_float buf x
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (x :: xs) ->
    Buffer.add_char buf '[';
    newline buf ~pretty (depth + 1);
    write buf ~pretty (depth + 1) x;
    write_items buf ~pretty (depth + 1) xs;
    newline buf ~pretty depth;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_char buf '{';
    write_member buf ~pretty (depth + 1) kv;
    write_members buf ~pretty (depth + 1) kvs;
    newline buf ~pretty depth;
    Buffer.add_char buf '}'

and write_items buf ~pretty depth = function
  | [] -> ()
  | x :: rest ->
    Buffer.add_char buf ',';
    newline buf ~pretty depth;
    write buf ~pretty depth x;
    write_items buf ~pretty depth rest

and write_member buf ~pretty depth (k, v) =
  newline buf ~pretty depth;
  escape_string buf k;
  Buffer.add_string buf (if pretty then ": " else ":");
  write buf ~pretty depth v

and write_members buf ~pretty depth = function
  | [] -> ()
  | kv :: rest ->
    Buffer.add_char buf ',';
    write_member buf ~pretty depth kv;
    write_members buf ~pretty depth rest

let to_buffer ?(pretty = true) buf t = write buf ~pretty 0 t

let to_string ?pretty t =
  let buf = Buffer.create 1024 in
  to_buffer ?pretty buf t;
  Buffer.contents buf

let write_file ?pretty ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ?pretty t);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(* Recursion bound for the parser: deeper nesting raises a typed
   [Parse_error] instead of blowing the OCaml stack.  512 is far above
   anything the writer emits and far below stack exhaustion. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
           in
           (* Only the escapes our writer emits (< 0x20) plus plain
              BMP codepoints encoded as UTF-8. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "unknown escape");
        loop ()
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items := parse_value (depth + 1) :: !items; loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        loop ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let seen = Hashtbl.create 8 in
        let parse_member () =
          skip_ws ();
          let k = parse_string () in
          if Hashtbl.mem seen k then fail (Printf.sprintf "duplicate key %S" k);
          Hashtbl.replace seen k ();
          skip_ws ();
          expect ':';
          (k, parse_value (depth + 1))
        in
        let items = ref [ parse_member () ] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items := parse_member () :: !items; loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        loop ();
        Obj (List.rev !items)
      end
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) xs ys
  | _ -> false
