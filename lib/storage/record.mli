(** Typed rows: schemas, values and their binary encoding. *)

type column_type =
  | Int  (** 63-bit signed integer. *)
  | Float  (** IEEE double. *)
  | Text  (** UTF-8/byte string. *)
  | Blob  (** Opaque bytes (encoded labels, sequence chunks). *)

type value =
  | VInt of int
  | VFloat of float
  | VText of string
  | VBlob of string

type schema = (string * column_type) array
(** Ordered (column name, type) pairs. *)

exception Type_error of string

val check : schema -> value array -> unit
(** Raises {!Type_error} on arity or type mismatch. *)

val encode : schema -> value array -> string
(** Checks, then serialises. *)

val decode : schema -> string -> value array
(** Raises [Crimson_util.Codec.Corrupt] on malformed input and
    {!Type_error} when the payload disagrees with the schema. Built on
    {!Reader}. *)

(** Sequential field reader over an encoded row held in a buffer — a
    pinned page, for callers that decode straight off it with no payload
    copy and no value array (see [Heap.with_record]). Fields must be read
    left to right, each with the reader of its column type; a read that
    runs past the end of the row raises [Crimson_util.Codec.Corrupt]. *)
module Reader : sig
  type t

  val create : bytes -> off:int -> len:int -> t
  (** A reader over [len] bytes from [off]. It reads the buffer in
      place, so it must not be used once a page buffer is unpinned. *)

  val int : t -> int
  val float : t -> float

  val text : t -> string
  (** A [Text] or [Blob] field, copied out of the buffer. *)

  val in_place : t -> (bytes -> int -> int -> 'a) -> 'a
  (** A [Text] or [Blob] field with no copy: [in_place r f] is
      [f buf off len] over the field's bytes where they lie. [f] must not
      keep [buf]. *)

  val finish : t -> unit
  (** Raises {!Type_error} when bytes remain past the last field. *)
end

val column_index : schema -> string -> int
(** Raises [Not_found]. *)

val get_int : value array -> int -> int
val get_float : value array -> int -> float
val get_text : value array -> int -> string
val get_blob : value array -> int -> string
(** Typed accessors; raise {!Type_error} on the wrong variant. *)

val encode_schema : schema -> string
val decode_schema : string -> schema
(** Catalog persistence. *)

