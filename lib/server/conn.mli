(** Sockets and the one connection loop.

    Every serving domain runs {!serve} over its own {!set}: the calling
    domain of {!Server.run}, which accepts every connection (and at one
    worker also serves the sessions), and each worker domain of a larger
    fleet. A connection's kind is fixed at accept by the handler it is
    built with — wire lines or gateway HTTP into a {!Worker_core}
    ({!adopt}), observability HTTP ({!obs}), or an admission rejection
    ({!reject}, {!reject_http}). Protocol logic stays in
    {!Worker_core}; this module shuttles bytes. *)

exception Bind_error of string
(** Binding or listening failed; the message names the address and
    cause. *)

val resolve : Wire.addr -> (Unix.socket_domain * Unix.sockaddr, string) result
(** The one host resolver: a numeric address or the first
    [gethostbyname] entry; [Error "unknown host H"] otherwise. Listeners
    and both clients use it. *)

val listen_on : Wire.addr -> Unix.file_descr
(** Bind and listen (backlog 128), non-blocking. TCP sockets get
    [SO_REUSEADDR]. An existing Unix-domain socket file is probed with
    [connect]: a refused probe means its server died, so the file is
    replaced; an accepted one raises {!Bind_error} ("already in use"),
    as does any other file at the path. *)

val accept : Unix.file_descr -> Unix.file_descr option
(** One non-blocking accept; the new socket is non-blocking. [None] on
    a spurious wakeup. *)

type t
(** One connection: its socket, buffered reply bytes and the handler
    its kind was given at accept. *)

type set
(** The connections one domain serves. Confined to that domain. *)

val create_set : unit -> set

type kind = Wire_conn | Http_conn
(** The session-carrying front ends: which listener a connection
    arrived on. *)

val adopt :
  set ->
  Worker_core.t ->
  Watchdog.beat ->
  Unix.file_descr ->
  id:int ->
  kind ->
  unit
(** Open session [id] on the core (its admission slot is already
    charged) and serve the socket in [set]: each wire line or decoded
    HTTP request runs through {!Worker_core.handle_line} or
    {!Worker_core.handle_http}, bracketed by the [beat]'s in-flight
    descriptor. Closing the connection closes the session. *)

val obs :
  set ->
  answer:((Crimson_gateway.Http.request, string) result -> string) ->
  on_close:(unit -> unit) ->
  Unix.file_descr ->
  unit
(** Serve an observability connection in [set]: the first request head
    (or decode error) gets [answer]'s bytes, then the connection closes.
    It holds no session. *)

val reject : Unix.file_descr -> string -> unit
(** Write a wire rejection line at once, then close. *)

val reject_http : set -> Unix.file_descr -> string -> unit
(** Answer an HTTP connection with [reply] (a complete response) once
    its request has arrived — at most about 1 s, and within the HTTP
    decoder's caps — then close, so the close never resets the
    connection under the reply. At most 16 rejections wait at once;
    past that the reply is written at once. No session is held. *)

val serve :
  set ->
  stop:(unit -> bool) ->
  timeout:float ->
  tick:(unit -> unit) ->
  sources:(Unix.file_descr * (unit -> unit)) list ->
  unit
(** The select loop, until [stop ()]: run [tick], then wait at most
    [timeout] seconds for the connections and the extra read [sources]
    (listeners, wake pipes); call a ready source's action, flush
    writable connections, and feed readable ones to their handlers. *)

val drain : set -> unit
(** Shutdown: give buffered replies at most 2 s to leave, then close
    every connection. *)
