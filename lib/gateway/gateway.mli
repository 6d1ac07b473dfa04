(** The HTTP data-service front end, as a pure request→bytes function.

    A server loop owns the sockets and the {!Http.decoder}; for each
    decoded request it calls {!respond} with the fleet's shared verb
    handlers. The gateway routes, serves conditional GETs (ETag /
    If-None-Match → 304) without touching the handlers, dispatches
    everything else through the same {!Request.t} API the line protocol
    uses, and renders JSON — or bare Newick when the client negotiated
    it and the reply has a tree-shaped alternative.

    Counters: [gateway.requests], [gateway.not_modified],
    [gateway.errors]. *)

type handlers = {
  dispatch : Request.t -> Request.format -> Response.t;
      (** The shared verb implementations (the worker core). *)
  validator : Request.t -> string option;
      (** Cheap resource fingerprint for cacheable requests; [None]
          disables conditional handling for that request. *)
}

val respond : handlers -> Http.request -> string * bool
(** [(rendered_response, close_after)]. *)

val reply_body : (string * Crimson_obs.Json.t) list -> string
(** The [{"ok":true, <fields>}] JSON body and its LF: an HTTP body and a
    wire reply line alike. It is written in the calling domain's render
    buffer ({!Crimson_obs.Json.render}) and copied out once, so it
    never aliases that buffer. *)

val error_body : Response.code -> string -> string
(** The [{"ok":false,"error":{…}}] JSON body and its LF, rendered as
    {!reply_body} is (shared with the wire protocol and with admission
    rejections rendered outside {!respond}). *)
