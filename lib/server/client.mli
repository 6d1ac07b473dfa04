(** A small blocking client for the Crimson query service — the
    scripting face of [crimson connect], and the driver the tests and
    the E11 bench use.

    One {!t} is one session. Requests are synchronous: send one line,
    read one JSON reply line. *)

type t

exception Connection_error of string
(** Connect/transport failures, wrapped with the address or cause. *)

val connect : Wire.addr -> t
(** Raises {!Connection_error}. *)

val of_fd : Unix.file_descr -> t
(** A session over an already connected socket, such as one a readiness
    probe opened. The client owns the descriptor from then on. *)

val close : t -> unit
(** Idempotent. *)

val request_line : t -> string -> string option
(** Send one request line, read one raw reply line ([None] when the
    server closed the connection instead — e.g. after QUIT, or an
    admission rejection already consumed by a previous read). *)

val request : t -> string -> Crimson_obs.Json.t
(** [request_line] plus JSON parsing. Raises {!Connection_error} on EOF
    and {!Crimson_obs.Json.Parse_error} on malformed replies. *)

val read_line : t -> string option
(** Read one reply line without sending anything — for replies the
    server volunteers, like the admission-rejection line. *)

val ok : Crimson_obs.Json.t -> bool
(** True when the reply's ["ok"] field is [true]. *)

val str_field : string -> Crimson_obs.Json.t -> string option
val num_field : string -> Crimson_obs.Json.t -> float option
