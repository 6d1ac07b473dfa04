(** Minimal blocking HTTP client for the data-service gateway: one
    connection, many requests (keep-alive), with status, headers and
    body exposed so callers can drive conditional GETs
    (If-None-Match / 304). Used by [crimson http-get], [crimson health],
    the smoke scripts and the tests. *)

type response = {
  status : int;
  headers : (string * string) list;
      (** Response headers, names lowercased, in arrival order. *)
  body : string;
}

type t
(** One open connection. Not thread-safe. *)

val connect : ?timeout:float -> Wire.addr -> (t, string) result
(** Open a connection (TCP or Unix-domain, resolved by
    {!Conn.resolve}); [timeout] (default 5s) bounds each socket read
    and write. *)

val request :
  t ->
  ?meth:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  string ->
  (response, string) result
(** Send one request for [path] and read its response. [meth] defaults
    to GET. Responses framed by [Content-Length] leave the connection
    reusable for the next request; responses without it are read to
    EOF. *)

val close : t -> unit

val header : response -> string -> string option
(** Case-insensitive header lookup. *)

val get :
  ?timeout:float ->
  ?headers:(string * string) list ->
  Wire.addr ->
  string ->
  (response, string) result
(** One-shot convenience: connect, GET [path], close. *)
