(* The observability endpoint's route table: GET /metrics, /healthz,
   /varz and /slowlog. The server's accept loop serves it over the
   gateway's HTTP codec, one request per connection, without a session
   slot. Every route reads the process's state in place: the registry
   already sums every domain's counts, and the slowlog reads every
   domain's ring. *)

module Http = Crimson_gateway.Http
module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Runtime = Crimson_obs.Runtime

type response = { status : int; content_type : string; body : string }

let text status body = { status; content_type = "text/plain; charset=utf-8"; body }
let json status j = { status; content_type = "application/json"; body = Json.to_string j ^ "\n" }

(* Every response — 200s and errors alike — carries an explicit
   Content-Length (even when the body is empty) and Connection: close. *)
let render r =
  Http.render ~status:r.status ~content_type:r.content_type ~keep_alive:false r.body

let index_body =
  "crimson observability endpoint\n\
   /metrics  Prometheus exposition (the METRICS verb's text)\n\
   /healthz  watchdog health (200 healthy / 503 stalled), per-worker JSON\n\
   /varz     stats --json equivalent\n\
   /slowlog  every worker's slow-query log, newest first\n"

let routes ~healthz ~varz ~slowlog path =
  match path with
  | "/" -> text 200 index_body
  | "/metrics" ->
      Runtime.refresh ();
      {
        status = 200;
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = Metrics.to_prometheus ();
      }
  | "/healthz" ->
      let ok, detail = healthz () in
      json (if ok then 200 else 503) detail
  | "/varz" ->
      Runtime.refresh ();
      json 200 (varz ())
  | "/slowlog" -> json 200 (slowlog ())
  | _ -> text 404 "not found (try /metrics, /healthz, /varz, /slowlog)\n"

let answer route = function
  | Error msg -> render (text 400 (msg ^ "\n"))
  | Ok (r : Http.request) when r.Http.meth <> "GET" ->
      render (text 405 "only GET is supported\n")
  | Ok r -> render (try route r.Http.path with _ -> text 400 "handler error\n")
