(** The Crimson wire protocol: addresses, framing, requests.

    The query service speaks a line-oriented protocol: each request is
    one LF-terminated line (a trailing CR is stripped, so both netcat
    and CRLF clients work), and each reply is exactly one line of JSON,
    the HTTP gateway's JSON body byte for byte
    ({!Crimson_gateway.Gateway.reply_body} and [error_body]) —
    [{"ok":true, ...}] on success,
    [{"ok":false,"error":{"code":…,"message":…}}] on failure. A request line is
    a verb, case-insensitive, then everything after the first space as
    its payload, verbatim; {!Crimson_gateway.Request.wire_table} lists
    the verbs and parses their payloads (DESIGN.md §10 gives the
    grammar). This module is pure (no sockets): the server and the
    client share it, and tests drive it directly. *)

(** {1 Addresses} *)

type addr =
  | Tcp of string * int  (** host, port *)
  | Unix_path of string  (** filesystem socket path *)

val parse_addr : string -> (addr, string) result
(** Accepts [unix:PATH], [HOST:PORT], [:PORT] (localhost) and bare
    [PORT]. *)

val addr_to_string : addr -> string
(** Inverse of {!parse_addr}, for banners and error messages. *)

(** {1 Requests}

    Parsing targets the transport-agnostic {!Crimson_gateway.Request.t},
    the same type the HTTP router produces — one verb implementation
    serves both front ends. *)

val parse_command :
  string ->
  (Crimson_gateway.Request.t, Crimson_gateway.Response.code * string) result
(** Parse one request line (already stripped of its terminator) through
    the verb table. Never raises; the error pairs a structured code
    ([Unknown_command] for an unrecognised verb, whose message lists the
    advertised verbs; [Bad_request] for a malformed payload) with a
    human-readable protocol diagnostic. *)

(** {1 Framing} *)

module Line_buffer : sig
  type t

  val create : max_line:int -> t
  (** [max_line] caps one request line in bytes — the server's defence
      against unbounded buffering by a client that never sends LF. *)

  val feed : t -> string -> (string list, string) result
  (** Append received bytes; returns the newly completed lines, oldest
      first, with LF consumed and one trailing CR stripped. [Error msg]
      once any line (complete or still accumulating) exceeds [max_line];
      the buffer is then poisoned and every later [feed] fails too — the
      session must be closed. *)

  val pending : t -> int
  (** Bytes buffered towards the next (incomplete) line. *)
end
