(** The per-worker query core: everything one worker needs to serve its
    own connections with no shared mutable state — sessions, warm
    {!Crimson_core.Stored_tree} handles (and through them per-worker
    node-view caches and buffer pools), and pre-created metric handles.
    It owns no socket: {!Conn} feeds it lines and decoded HTTP requests.

    Every core is worker [ctx.worker_id] of a fleet of [ctx.workers].
    Admission happens at accept, before a session reaches the core
    ({!accept_session}); everything that crosses domains — the Query
    Repository write path and the fleet's {!sessions} — goes through
    the {!ctx}. SLOWLOG reads every domain's ring in place
    ({!Crimson_obs.Trace.slowlog}). A one-worker fleet ({!local_ctx})
    serves the caller's read-write repository on the calling domain; in
    a larger fleet ({!Coordinator}) each core serves a private
    read-only open.

    Telemetry: every handled request counts into [server.requests] and
    the worker's [server.worker.<id>.requests] slice, and times into
    [server.request_ms]; failures count into [server.errors], timeouts
    into [server.timeouts], session churn into
    [server.sessions.accepted]/[closed] and the
    [server.sessions.active] gauge. Every request runs under
    [Trace.timed]: its span tree is collected only while a reader
    is configured, and reaches the slowlog when it passes [slowlog_ms]
    and the JSONL sink when [trace_out] is set. *)

type config = {
  max_sessions : int;  (** Reject new sessions beyond this many, fleet-wide. *)
  request_timeout : float;  (** Per-request wall-clock budget, seconds; [0.] = none. *)
  max_line : int;  (** Longest accepted request line, bytes. *)
  slowlog_ms : float option;  (** Slow-query threshold; [None] disables the slowlog. *)
  trace_out : string option;  (** JSONL trace sink path ([None]: keep current sink). *)
  trace_max_bytes : int;  (** Sink rotation threshold. *)
  flush_interval : float;
      (** Seconds between trace-sink fsyncs by the server loop. *)
  workers : int;
      (** Worker cores serving requests. [1] (the default) serves on the
          calling domain; [n >= 2] runs [n] shared-nothing worker
          domains (requires a persistent, on-disk repository). *)
  obs_listen : Wire.addr option;
      (** Address for the HTTP observability endpoint ([/metrics],
          [/healthz], [/varz], [/slowlog]); [None] (default) disables
          it. *)
  http_listen : Wire.addr option;
      (** Address for the HTTP/JSON data-service gateway (the versioned
          [/v1] resource API, served by the same worker fleet); [None]
          (default) disables it. *)
  stall_after : float;
      (** Watchdog: seconds of heartbeat silence before an idle worker
          counts as stalled. *)
  stall_factor : float;
      (** Watchdog: an in-flight request may run this many times its
          deadline budget before its worker counts as stalled. *)
  events_out : string option;
      (** JSONL event-journal path ([worker_stalled], [server_started],
          ...); [None] disables the journal. *)
  debug_verbs : bool;
      (** Accept debug/fault-injection wire verbs (SLEEP). Off by
          default; enabled by tests and the smoke scripts. *)
}

val default_config : config
(** 64 sessions, 5 s timeout, 64 KiB lines, no slowlog, no trace sink
    (64 MiB rotation cap when one is set), 5 s flush interval, 1
    worker, no obs endpoint or gateway, 10 s stall-after with factor 4,
    no event journal, debug verbs off. *)

val auto_workers : unit -> int
(** The fleet size [--workers auto] resolves to: the runtime's
    recommended domain count minus one (the accept loop keeps the
    calling domain), floored at one worker. *)

type t
(** One worker core. Not thread-safe: a core and all its sessions are
    confined to the domain that created it. *)

type session
(** One client session: selected tree, RNG seed, request counter and
    cumulative cost accounting. *)

type sessions
(** The fleet's sessions, shared by every core: the admission count and
    the table of every core's live sessions. The table sits behind one
    mutex; a core writes its sessions' TOP fields under it, and TOP
    reads the whole table under it. *)

val create_sessions : unit -> sessions
(** No sessions admitted or live. *)

val admitted : sessions -> int Atomic.t
(** Fleet-wide admitted sessions: charged at accept, released by
    {!close_session}. *)

type session_row = {
  r_worker : int;
  r_session : int;
  r_tree : string option;
  r_requests : int;
  r_ms : float;
  r_pages : int;
  r_bytes_out : int;
  r_started_at : float;
  r_last : string;
}
(** One session's TOP fields, copied under the sessions' mutex. A
    session whose request is still running shows that request as
    [r_last]. *)

val compare_rows : session_row -> session_row -> int
(** TOP's sort order: cumulative milliseconds descending, ties broken
    by (worker, session) id so the order is total — fleet rows never
    flap between scrapes. *)

type ctx = {
  worker_id : int;  (** 1-based id of this worker within the fleet. *)
  workers : int;  (** Fleet size. *)
  started_at : float;  (** Server start time, for TOP uptime. *)
  sessions : sessions;  (** Shared by every core of the fleet. *)
  record_query :
    elapsed_ms:float ->
    pages:int ->
    cost:string ->
    text:string ->
    result:string ->
    unit;
      (** The Query Repository write path: one history row. *)
}
(** The fleet context of one core. *)

val local_ctx : ?sessions:sessions -> Crimson_core.Repo.t -> ctx
(** The one-worker fleet: worker 1 of 1, history rows written straight
    into the given (read-write) repository. [sessions] holds the
    admission count to release sessions into (fresh by default). *)

val create : ?config:config -> ctx -> Crimson_core.Repo.t -> t
(** Build a core over an open repository — the one the [ctx] expects:
    read-write for {!local_ctx}, a private read-only open in a larger
    fleet. Sets the slowlog threshold; the trace sink and event journal
    are the server's to install. *)

val config : t -> config

type reply = {
  body : string;  (** Complete response line(s), newline-terminated. *)
  close : bool;  (** Close the connection after writing [body]. *)
}

val accept_session : t -> id:int -> session
(** Materialise session [id] and list it in [ctx.sessions]. Admission
    happened at accept: the caller already charged {!admitted}. *)

val close_session : t -> session -> unit
(** Idempotent; unlists the session and releases its admission slot. *)

val session_id : session -> int

val active_sessions : t -> int
(** Live sessions on {e this} core (not fleet-wide). *)

val handle_line : t -> session -> string -> reply
(** Execute one request line and produce its reply. Never raises:
    malformed input, unknown trees, query errors and timeouts all come
    back as error replies. Request timeouts are deadline checks
    ({!Crimson_obs.Deadline}) woven through node resolution — no
    signals, so N workers can time out independently. *)

val handle_http :
  t -> session -> Crimson_gateway.Http.request -> string * bool
(** Serve one decoded HTTP request through the gateway (routing,
    conditional GETs, content negotiation) and the dispatch a wire line
    goes through, with the same per-request accounting as a wire line. Returns the
    fully rendered response bytes and whether the connection must close
    after writing them. *)

val protocol_error : t -> session -> string -> reply
(** Reply for transport-level violations (oversized line, NUL byte):
    counted as an error, [close = true]. *)

val slowlog_fields : workers:int -> int option -> (string * Crimson_obs.Json.t) list
(** [slowlog_fields ~workers n]: the SLOWLOG reply's fields, which
    [/slowlog] renders too — the threshold, [workers] (the fleet size)
    and every domain's slowlog entries, newest first, at most [n] of
    them when [n] is given. *)

val src : Logs.src
