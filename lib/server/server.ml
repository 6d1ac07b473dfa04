module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Trace = Crimson_obs.Trace
module Events = Crimson_obs.Events
module Response = Crimson_gateway.Response
module Log = (val Logs.src_log Worker_core.src : Logs.LOG)

exception Bind_error = Conn.Bind_error

let unlink = function
  | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ()

let max_obs_conns = 64

(* Run [f] at most once per [interval] seconds. *)
let every interval f =
  let last = ref (Unix.gettimeofday ()) in
  fun () ->
    let now = Unix.gettimeofday () in
    if now -. !last >= interval then begin
      last := now;
      f ()
    end

let run ?(config = Worker_core.default_config) ?(on_ready = ignore)
    ?(on_obs_ready = ignore) ?(on_http_ready = ignore) repo addr =
  let workers = max 1 config.Worker_core.workers in
  let max_sessions = config.Worker_core.max_sessions in
  (* The process-wide outputs, installed once before any core exists. *)
  Option.iter
    (fun path -> Trace.set_sink ~max_bytes:config.Worker_core.trace_max_bytes (Some path))
    config.Worker_core.trace_out;
  Option.iter (fun path -> Events.set_journal (Some path)) config.Worker_core.events_out;
  (* Every listener binds before anything serves, so a bad address fails
     fast; a failure releases the ones already bound. *)
  let bound = ref [] in
  let release () =
    List.iter
      (fun (a, fd) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        unlink a)
      !bound
  in
  let listen a =
    match Conn.listen_on a with
    | fd ->
        bound := (a, fd) :: !bound;
        fd
    | exception e ->
        release ();
        raise e
  in
  let listen_fd = listen addr in
  let obs_fd = Option.map listen config.Worker_core.obs_listen in
  let http_fd = Option.map listen config.Worker_core.http_listen in
  (* A client closing mid-reply must surface as EPIPE, not kill the
     process. *)
  let stop = Atomic.make false in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_int = Sys.signal Sys.sigint on_signal in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let restore () =
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term
  in
  let sessions = Worker_core.create_sessions () in
  let active = Worker_core.admitted sessions in
  let set = Conn.create_set () in
  let fleet =
    try
      if workers = 1 then Coordinator.local ~config ~sessions set repo
      else Coordinator.spawn ~config ~sessions ~stop repo
    with e ->
      release ();
      restore ();
      raise e
  in
  let watchdog =
    Watchdog.create ~stall_after:config.Worker_core.stall_after
      ~stall_factor:config.Worker_core.stall_factor fleet.Coordinator.beats
  in
  (* /healthz runs a watchdog pass of its own, so a probe observes a
     stall as soon as it crosses the threshold — no tick-cadence lag. *)
  let healthz () =
    Watchdog.check watchdog;
    (Watchdog.healthy watchdog, Watchdog.to_json watchdog)
  in
  let started_at = Unix.gettimeofday () in
  let varz () =
    Json.Obj
      [
        ("uptime_s", Json.Num (Unix.gettimeofday () -. started_at));
        ("workers", Json.Num (float_of_int workers));
        ("active", Json.Num (float_of_int (Atomic.get active)));
        ("healthy", Json.Bool (Watchdog.healthy watchdog));
        ("metrics", Metrics.to_json ());
      ]
  in
  let slowlog () = Json.Obj (Worker_core.slowlog_fields ~workers None) in
  let answer = Http_obs.answer (Http_obs.routes ~healthz ~varz ~slowlog) in
  (* Admission, at accept for every fleet size: charge the slot, then
     place the connection; closing its session releases the slot. *)
  let m_rejected = Metrics.counter "server.sessions.rejected" in
  let next_id = ref 1 in
  let admit kind fd =
    let n = Atomic.get active in
    if n >= max_sessions then begin
      Metrics.Counter.incr m_rejected;
      Log.info (fun m -> m "session rejected: %d active (limit %d)" n max_sessions);
      (* Framed for the front end it arrived on: a wire error line, or a
         503 carrying the same structured error. *)
      let msg = Printf.sprintf "session limit reached (%d active, max %d)" n max_sessions in
      match kind with
      | Conn.Wire_conn ->
          Conn.reject fd (Crimson_gateway.Gateway.error_body Response.Session_limit msg)
      | Conn.Http_conn ->
          Conn.reject_http set fd
            (Crimson_gateway.Http.render ~status:503
               (Crimson_gateway.Gateway.error_body Response.Session_limit msg))
    end
    else begin
      Atomic.incr active;
      let id = !next_id in
      incr next_id;
      fleet.Coordinator.place fd ~id kind
    end
  in
  (* Obs connections never take a session slot. *)
  let obs_open = ref 0 in
  let admit_obs fd =
    if !obs_open >= max_obs_conns then
      Conn.reject_http set fd
        (Http_obs.render (Http_obs.text 503 "too many observability connections\n"))
    else begin
      incr obs_open;
      Conn.obs set ~answer ~on_close:(fun () -> decr obs_open) fd
    end
  in
  let on_accept lfd admit = (lfd, fun () -> Option.iter admit (Conn.accept lfd)) in
  let sources =
    (on_accept listen_fd (admit Conn.Wire_conn)
    :: List.filter_map Fun.id
         [
           Option.map (fun fd -> on_accept fd (admit Conn.Http_conn)) http_fd;
           Option.map (fun fd -> on_accept fd admit_obs) obs_fd;
         ])
    @ fleet.Coordinator.sources
  in
  (* Periodic maintenance between selects: fsync the trace sink so a
     crash loses at most one flush interval of records, and run the
     watchdog. *)
  let flush_trace =
    if config.Worker_core.flush_interval > 0.0 then
      every config.Worker_core.flush_interval Trace.flush
    else ignore
  in
  let check = every (Watchdog.interval watchdog) (fun () -> Watchdog.check watchdog) in
  let tick () =
    fleet.Coordinator.tick ();
    flush_trace ();
    check ()
  in
  (* A Unix socket reports its path: it was bound under a temporary
     name (Conn.listen_on). A TCP one reports its bound port. *)
  let served a fd =
    match a with
    | Wire.Unix_path path -> Unix.ADDR_UNIX path
    | Wire.Tcp _ -> Unix.getsockname fd
  in
  on_ready (served addr listen_fd);
  (match (config.Worker_core.obs_listen, obs_fd) with
  | Some a, Some fd -> on_obs_ready (served a fd)
  | _ -> ());
  (match (config.Worker_core.http_listen, http_fd) with
  | Some a, Some fd -> on_http_ready (served a fd)
  | _ -> ());
  Events.emit "server_started"
    ~fields:
      [
        ("addr", Json.Str (Wire.addr_to_string addr));
        ("workers", Json.Num (float_of_int workers));
      ];
  Log.info (fun m ->
      m "listening on %s with %d workers" (Wire.addr_to_string addr) workers);
  Conn.serve set
    ~stop:(fun () -> Atomic.get stop)
    ~timeout:(Float.min 0.25 (Watchdog.interval watchdog))
    ~tick ~sources;
  (* Graceful drain: stop accepting, let buffered replies leave, stop
     the fleet, then write out what remains. *)
  Log.info (fun m -> m "shutting down: draining %d workers" workers);
  release ();
  Conn.drain set;
  fleet.Coordinator.stop ();
  Trace.flush ();
  Events.emit "server_stopped" ~fields:[ ("workers", Json.Num (float_of_int workers)) ];
  Events.flush ();
  restore ();
  Log.info (fun m -> m "shutdown complete")
