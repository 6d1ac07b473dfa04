(** The HTTP route table: maps requests onto the transport-agnostic
    {!Request.t} so handlers are shared with the line protocol.

    One list declares every route — method, path pattern, documented
    parameters, doc line and request builder — and both {!route} and
    {!doc_routes} read it, so [GET /v1/doc] lists exactly the routes
    that are served. Versioned under [/v1]. Pagination defaults:
    [page=1] (1-based), [per_page=20] (max 500). Overview resolution
    defaults to [depth=1]. *)

val route :
  Http.request ->
  (Request.t * Request.format, Response.code * string) result
(** In this order: a bad [format] or [Accept] is [Bad_request], an
    unknown path [Not_found], a known path with the wrong method
    [Method_not_allowed] (naming the route's method), and malformed
    parameters [Bad_request]. *)

val doc_routes : Crimson_obs.Json.t
(** The [/v1/doc] payload: the route list, rendered. *)

val max_per_page : int
val default_per_page : int
