type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

let fail pos fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { pos; message })) fmt

(* ----------------------------- Rendering ---------------------------- *)

(* The %.17g conversion Printf itself ends in, without its format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied whole. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c < ' ' || c = '"' || c = '\\' then begin
      Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 0xf]);
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Integral |x| <= 1e15 are the digits "%.0f" would print, written
   directly: 1e15 < 2^53, so the int conversion is exact. *)
let add_number buf x =
  if Float.is_nan x || Float.abs x = Float.infinity then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x <= 1e15 then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_digits buf (Float.to_int (Float.abs x))
  end
  else Buffer.add_string buf (format_float "%.17g" x)

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_number buf x
    | Str s -> escape_to buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            go item)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------ Parsing ----------------------------- *)

type cursor = { src : string; mutable pos : int }

let at c ch = c.pos < String.length c.src && c.src.[c.pos] = ch

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else if c.pos < String.length c.src then fail c.pos "expected %C, found %C" ch c.src.[c.pos]
  else fail c.pos "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal (expected %s)" word

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* The first quote or backslash at or after [i], or the end of [s]. *)
let rec run_end s i =
  if i < String.length s && s.[i] <> '"' && s.[i] <> '\\' then run_end s (i + 1) else i

(* A string without escapes is one [String.sub]; otherwise the runs
   between escapes are copied whole into a buffer. *)
let parse_string c =
  expect c '"';
  let src = c.src and len = String.length c.src in
  let start = c.pos in
  let stop = run_end src start in
  if stop < len && src.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec go () =
      if c.pos >= len then fail c.pos "unterminated string"
      else
        match src.[c.pos] with
        | '"' -> c.pos <- c.pos + 1
        | '\\' ->
            if c.pos + 1 >= len then fail c.pos "unterminated escape";
            (match src.[c.pos + 1] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 5 >= len then fail c.pos "truncated \\u escape";
                let hex = String.sub src (c.pos + 2) 4 in
                if not (String.for_all is_hex hex) then fail c.pos "bad \\u escape %S" hex;
                let code = int_of_string ("0x" ^ hex) in
                (* Only the control-character range we emit; others pass as '?'. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?';
                c.pos <- c.pos + 4
            | e -> fail c.pos "unknown escape \\%C" e);
            c.pos <- c.pos + 2;
            go ()
        | _ ->
            let stop = run_end src c.pos in
            Buffer.add_substring buf src c.pos (stop - c.pos);
            c.pos <- stop;
            go ()
    in
    go ();
    Buffer.contents buf
  end

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* [-]digits of up to 15 digits (< 2^53) are read exactly as an int;
   every other token goes through float_of_string. *)
let parse_number c =
  let src = c.src and len = String.length c.src in
  let start = c.pos in
  let first = if src.[start] = '-' then start + 1 else start in
  let n = ref 0 in
  c.pos <- first;
  while c.pos < len && match src.[c.pos] with '0' .. '9' -> true | _ -> false do
    n := (!n * 10) + (Char.code src.[c.pos] - Char.code '0');
    c.pos <- c.pos + 1
  done;
  let digits = c.pos - first in
  if digits >= 1 && digits <= 15 && not (c.pos < len && is_num_char src.[c.pos]) then
    if first > start then -.float_of_int !n else float_of_int !n
  else begin
    while c.pos < len && is_num_char src.[c.pos] do
      c.pos <- c.pos + 1
    done;
    let s = String.sub src start (c.pos - start) in
    match float_of_string_opt s with
    | Some x -> x
    | None -> fail start "invalid number %S" s
  end

let rec parse_value c =
  skip_ws c;
  if c.pos >= String.length c.src then fail c.pos "unexpected end of input";
  match c.src.[c.pos] with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> Str (parse_string c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while at c ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          (k, v)
        in
        let fields = ref [ field () ] in
        while at c ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | '-' | '0' .. '9' -> Num (parse_number c)
  | ch -> fail c.pos "unexpected character %C" ch

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let x = sort x and y = sort y in
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           x y
  | (Null | Bool _ | Num _ | Str _ | List _ | Obj _), _ -> false
