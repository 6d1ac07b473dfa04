module Codec = Crimson_util.Codec

type column_type =
  | Int
  | Float
  | Text
  | Blob

type value =
  | VInt of int
  | VFloat of float
  | VText of string
  | VBlob of string

type schema = (string * column_type) array

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let type_name = function Int -> "int" | Float -> "float" | Text -> "text" | Blob -> "blob"

let value_matches ty v =
  match (ty, v) with
  | Int, VInt _ | Float, VFloat _ | Text, VText _ | Blob, VBlob _ -> true
  | (Int | Float | Text | Blob), _ -> false

let check schema row =
  if Array.length schema <> Array.length row then
    type_error "row has %d values for %d columns" (Array.length row) (Array.length schema);
  Array.iteri
    (fun i (name, ty) ->
      if not (value_matches ty row.(i)) then
        type_error "column %s expects %s" name (type_name ty))
    schema

let encode schema row =
  check schema row;
  let w = Codec.Writer.create ~capacity:64 () in
  Array.iter
    (fun v ->
      match v with
      | VInt x -> Codec.Writer.zigzag w x
      | VFloat x -> Codec.Writer.float64 w x
      | VText s | VBlob s -> Codec.Writer.string w s)
    row;
  Codec.Writer.contents w

module Reader = struct
  type t = {
    buf : bytes;
    mutable pos : int;
    limit : int;
  }

  let create buf ~off ~len = { buf; pos = off; limit = off + len }

  let need r n =
    if r.limit - r.pos < n then
      raise
        (Codec.Corrupt
           (Printf.sprintf "Record.Reader: need %d bytes at offset %d, have %d" n r.pos
              (r.limit - r.pos)))

  let u8 r =
    need r 1;
    let v = Char.code (Bytes.unsafe_get r.buf r.pos) in
    r.pos <- r.pos + 1;
    v

  let varint r =
    let rec loop shift acc =
      if shift > Sys.int_size - 7 then
        raise (Codec.Corrupt "Record.Reader: varint overflow");
      let b = u8 r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
    in
    loop 0 0

  let int r =
    let v = varint r in
    (v lsr 1) lxor - (v land 1)

  let float r =
    need r 8;
    let v = Int64.float_of_bits (Bytes.get_int64_le r.buf r.pos) in
    r.pos <- r.pos + 8;
    v

  let text r =
    let n = varint r in
    need r n;
    let s = if n = 0 then "" else Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let in_place r f =
    let n = varint r in
    need r n;
    let off = r.pos in
    r.pos <- r.pos + n;
    f r.buf off n

  let finish r =
    if r.pos <> r.limit then type_error "payload has %d trailing bytes" (r.limit - r.pos)
end

let decode schema payload =
  let r =
    Reader.create (Bytes.unsafe_of_string payload) ~off:0 ~len:(String.length payload)
  in
  (* Explicit loop: decoding must consume fields left to right. *)
  let n = Array.length schema in
  let row = Array.make n (VInt 0) in
  for i = 0 to n - 1 do
    row.(i) <-
      (match snd schema.(i) with
      | Int -> VInt (Reader.int r)
      | Float -> VFloat (Reader.float r)
      | Text -> VText (Reader.text r)
      | Blob -> VBlob (Reader.text r))
  done;
  Reader.finish r;
  row

let column_index schema name =
  let rec go i =
    if i = Array.length schema then raise Not_found
    else if String.equal (fst schema.(i)) name then i
    else go (i + 1)
  in
  go 0

let get_int row i =
  match row.(i) with VInt x -> x | _ -> type_error "column %d is not an int" i

let get_float row i =
  match row.(i) with VFloat x -> x | _ -> type_error "column %d is not a float" i

let get_text row i =
  match row.(i) with VText s -> s | _ -> type_error "column %d is not text" i

let get_blob row i =
  match row.(i) with VBlob s -> s | _ -> type_error "column %d is not a blob" i

let type_tag = function Int -> 0 | Float -> 1 | Text -> 2 | Blob -> 3

let type_of_tag = function
  | 0 -> Int
  | 1 -> Float
  | 2 -> Text
  | 3 -> Blob
  | t -> type_error "unknown column type tag %d" t

let encode_schema schema =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (Array.length schema);
  Array.iter
    (fun (name, ty) ->
      Codec.Writer.string w name;
      Codec.Writer.u8 w (type_tag ty))
    schema;
  Codec.Writer.contents w

let decode_schema payload =
  let r = Codec.Reader.create payload in
  let n = Codec.Reader.varint r in
  let schema = Array.make n ("", Int) in
  for i = 0 to n - 1 do
    let name = Codec.Reader.string r in
    let ty = type_of_tag (Codec.Reader.u8 r) in
    schema.(i) <- (name, ty)
  done;
  schema

