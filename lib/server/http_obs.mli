(** The observability endpoint's route table ([serve --obs-listen]).

    {!Server.run} serves it over the gateway's HTTP codec
    ({!Crimson_gateway.Http}): one request per connection, then close,
    at most 64 connections at once, none holding a session slot.

    Its GET routes are {!paths}. Each reads the process's state in
    place. *)

type response = { status : int; content_type : string; body : string }

val text : int -> string -> response

val paths : (string * string) list
(** Every route's path and one-line doc ([/metrics] serves the same
    Prometheus text as METRICS). The routing, the index page at [/],
    the 404 hint and the CLI's help read this list. *)

val render : response -> string
(** The complete HTTP response, [Connection: close]. *)

val routes :
  healthz:(unit -> bool * Crimson_obs.Json.t) ->
  varz:(unit -> Crimson_obs.Json.t) ->
  slowlog:(unit -> Crimson_obs.Json.t) ->
  string ->
  response
(** The route table over a request path (query string stripped).
    [healthz] returns (healthy?, detail); unhealthy renders as 503 so
    load balancers and scripts can probe with no JSON parsing. *)

val answer :
  (string -> response) ->
  (Crimson_gateway.Http.request, string) result ->
  string
(** The rendered reply to one decoded request head: the route's
    response for a GET, 405 for any other method, 400 for a decode
    error (or a route that raised). *)
