(** Minimal JSON values for the telemetry exporters.

    Crimson deliberately carries no external JSON dependency; metric
    snapshots and bench results need only this small subset: rendering
    is exact for the values the registry produces, and [parse] accepts
    everything [to_string] emits (used by the round-trip tests and by
    scripts that slurp BENCH lines). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

val to_string : t -> string
(** Compact single-line rendering: no whitespace between tokens, object
    fields in list order. The bytes are a contract (the wire golden file
    pins them):
    - Numbers: an integral value with |x| <= 1e15 prints as plain
      decimal digits, with [-0] for negative zero; every other finite
      value prints as C's [%.17g]; NaN and infinities print as [null]
      (JSON has no spelling for them).
    - Strings: the double quote, backslash, newline, carriage return
      and tab are escaped as a backslash followed by the quote, the
      backslash, [n], [r] and [t]; other bytes below 0x20 as [\u00XX]
      with lowercase hex digits; bytes >= 0x80 are copied verbatim (no
      UTF-8 validation). *)

val parse : string -> t
(** Strict parser for the subset above. Raises {!Parse_error} with the
    byte offset of the offending character. A [\u] escape needs four
    hex digits; one below 0x80 decodes to that byte and any other maps
    to [?], so [parse] inverts [to_string] exactly. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys or non-objects. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare order-insensitively. *)
