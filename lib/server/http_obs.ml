(* The observability endpoint's route table, [endpoints] below. The
   server's accept loop serves it over the gateway's HTTP codec, one
   request per connection, without a session slot. Every route reads the process's state in place: the registry
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

type sources = {
  healthz : unit -> bool * Json.t;
  varz : unit -> Json.t;
  slowlog : unit -> Json.t;
}

(* Every route, with the line the index page gives it; the routing, the
   index, the 404 hint and the CLI's help read this list. *)
let endpoints =
  [
    ( "/metrics",
      "Prometheus exposition (the METRICS verb's text)",
      fun _ ->
        Runtime.refresh ();
        {
          status = 200;
          content_type = "text/plain; version=0.0.4; charset=utf-8";
          body = Metrics.to_prometheus ();
        } );
    ( "/healthz",
      "watchdog health (200 healthy / 503 stalled), per-worker JSON",
      fun s ->
        let ok, detail = s.healthz () in
        json (if ok then 200 else 503) detail );
    ( "/varz",
      "stats --json equivalent",
      fun s ->
        Runtime.refresh ();
        json 200 (s.varz ()) );
    ( "/slowlog",
      "every worker's slow-query log, newest first",
      fun s -> json 200 (s.slowlog ()) );
  ]

let paths = List.map (fun (path, doc, _) -> (path, doc)) endpoints

let index_body =
  String.concat ""
    ("crimson observability endpoint\n"
    :: List.map (fun (path, doc) -> Printf.sprintf "%-9s %s\n" path doc) paths)

let routes ~healthz ~varz ~slowlog path =
  match List.find_opt (fun (p, _, _) -> p = path) endpoints with
  | Some (_, _, handler) -> handler { healthz; varz; slowlog }
  | None when path = "/" -> text 200 index_body
  | None ->
      text 404
        (Printf.sprintf "not found (try %s)\n" (String.concat ", " (List.map fst paths)))

let answer route = function
  | Error msg -> render (text 400 (msg ^ "\n"))
  | Ok (r : Http.request) when r.Http.meth <> "GET" ->
      render (text 405 "only GET is supported\n")
  | Ok r -> render (try route r.Http.path with _ -> text 400 "handler error\n")
