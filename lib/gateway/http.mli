(** HTTP/1.x framing for the gateway: bytes in, requests out, and a
    response renderer that never leaves framing ambiguous.

    This module owns no sockets. Server loops feed raw reads into a
    {!decoder} and write back {!render}ed strings; the decoder handles
    request heads, query strings, Content-Length bodies, pipelining and
    keep-alive negotiation. *)

type request = {
  meth : string;  (** Uppercased method. *)
  target : string;  (** Raw request target as received. *)
  path : string;  (** Percent-decoded path, query string stripped. *)
  query : (string * string) list;  (** Decoded query parameters, in order. *)
  headers : (string * string) list;  (** Names lowercased, values trimmed. *)
  body : string;
  version : string;  (** ["HTTP/1.0"] or ["HTTP/1.1"]. *)
}

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option
(** First query parameter of the given (decoded) name. *)

val wants_keep_alive : request -> bool
(** 1.1 defaults persistent, 1.0 one-shot; an explicit [Connection]
    header overrides either way. *)

val percent_decode : string -> string
val parse_query : string -> (string * string) list

(** {1 Incremental request decoding} *)

type decoder

val create_decoder : ?max_head:int -> ?max_body:int -> unit -> decoder
(** One per connection. [max_head] (default 16 KiB) bounds the request
    head, [max_body] (default 256 KiB) the declared body length. *)

val feed : decoder -> string -> (request list, string) result
(** Add raw bytes; returns every request completed so far (possibly
    several — pipelining — or none). [Error] means the stream is
    unrecoverable (malformed head, cap exceeded): send one error
    response and close; further feeds keep failing. *)

(** {1 Responses} *)

val render :
  ?status:int ->
  ?content_type:string ->
  ?extra:(string * string) list ->
  ?keep_alive:bool ->
  string ->
  string
(** A complete response with explicit [Content-Length] (always, even
    for empty bodies) and [Connection] header. Defaults: 200,
    [application/json], close. *)
