(** The Crimson query service: the {!Wire} protocol, the HTTP/JSON
    gateway and the observability endpoint, over TCP or Unix-domain
    sockets.

    The calling domain binds every listener, accepts every connection,
    applies admission control and serves the observability routes, all
    in one {!Conn.serve} loop. Admitted sessions go to the fleet
    {!Coordinator} picks by [config.workers]: at [1] (the default) the
    same loop serves them against the caller's repository; at [n >= 2]
    [n] worker domains, each running that loop over a private read-only
    open of the repository directory (which must be on disk).

    Robustness: over-limit connects get a rejection (a wire error line,
    or an HTTP 503 once the request head is in) and are closed, never
    left hanging; per-request deadline checks; an input line cap;
    malformed input answered with protocol errors. SIGINT/SIGTERM
    trigger a graceful drain: stop accepting, flush every pending
    reply, close sessions (and join worker domains), remove Unix
    socket files, return.

    Every [config.flush_interval] seconds the loop fsyncs the JSONL
    trace sink, so a crash loses at most one interval of records. *)

val run :
  ?config:Worker_core.config ->
  ?on_ready:(Unix.sockaddr -> unit) ->
  ?on_obs_ready:(Unix.sockaddr -> unit) ->
  ?on_http_ready:(Unix.sockaddr -> unit) ->
  Crimson_core.Repo.t ->
  Wire.addr ->
  unit
(** Bind, listen and serve until SIGINT/SIGTERM. [on_ready] is called
    once with the bound address (reports the kernel-chosen port when
    listening on port 0), after every worker is ready; [on_obs_ready]
    fires with the bound observability address when
    [config.obs_listen] is set (the {!Http_obs} routes [/metrics],
    [/healthz], [/varz], [/slowlog]); [on_http_ready] fires with the
    bound gateway address when [config.http_listen] is set (the
    versioned [/v1] HTTP/JSON data-service API, served through the same
    sessions and verb handlers as the wire protocol). Raises
    {!Bind_error} when an address cannot be bound; never raises out of
    the serving loop itself. The caller still owns (and closes) the
    repository. *)

exception Bind_error of string
