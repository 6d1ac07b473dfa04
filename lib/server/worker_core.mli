(** The per-worker query core: everything one worker needs to serve its
    own connections with no shared mutable state — sessions, warm
    {!Crimson_core.Stored_tree} handles (and through them per-worker
    node-view caches and buffer pools), and pre-created metric handles.
    It owns no socket: {!Conn} feeds it lines and decoded HTTP requests.

    Every core is worker [ctx.worker_id] of a fleet of [ctx.workers].
    Admission happens at accept, before a session reaches the core
    ({!accept_session}); everything that crosses domains — the Query
    Repository write path, the shared admission count, TOP and SLOWLOG
    visibility — goes through the {!ctx}. A one-worker fleet
    ({!local_ctx}) serves the caller's read-write repository on the
    calling domain; in a larger fleet ({!Coordinator}) each core serves
    a private read-only open.

    Telemetry: every handled request counts into [server.requests] and
    the worker's [server.worker.<id>.requests] slice, and times into
    [server.request_ms]; failures count into [server.errors], timeouts
    into [server.timeouts], session churn into
    [server.sessions.accepted]/[closed] and the
    [server.sessions.active] gauge. Every request runs under
    [Trace.timed], so its span tree lands in the trace ring, the
    slowlog past [slowlog_ms], and any JSONL sink. *)

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
  events_max_bytes : int;  (** Event-journal rotation threshold. *)
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
(** A published snapshot of one session's accounting: plain data, safe
    to hand across domains. Workers publish their rows after every
    handled request; whichever worker answers TOP merges its own live
    table with the peers' latest snapshots. *)

val compare_rows : session_row -> session_row -> int
(** TOP's sort order: cumulative milliseconds descending, ties broken
    by (worker, session) id so the order is total — merged fleet rows
    never flap between scrapes. *)

type obs_slice = {
  o_worker : int;
  o_generation : int;
      (** The worker's {!Crimson_obs.Trace.generation} when the slice
          was taken; [-1] marks a slot never published. *)
  o_slow : Crimson_obs.Trace.record list;
  o_recent : Crimson_obs.Trace.record list;
}
(** A worker's published trace-ring slice: plain data, safe to hand
    across domains. Trace rings are domain-local ({!Domain.DLS}), so
    fleet SLOWLOG/[/slowlog] answers merge these published slices. *)

type ctx = {
  worker_id : int;  (** 1-based id of this worker within the fleet. *)
  workers : int;  (** Fleet size. *)
  started_at : float;  (** Server start time, for TOP uptime. *)
  active : int Atomic.t;
      (** Fleet-wide live sessions: charged at accept, released by
          {!close_session}. *)
  record_query :
    elapsed_ms:float ->
    pages:int ->
    cost:string ->
    text:string ->
    result:string ->
    unit;
      (** The Query Repository write path: one history row. *)
  publish_sessions : (unit -> session_row list) -> unit;
      (** Offer this worker's current session rows for fleet TOP. *)
  peer_sessions : unit -> session_row list;
      (** The other workers' most recently published rows. *)
  publish_obs : (unit -> obs_slice) -> unit;
      (** Offer this worker's trace/slowlog ring slice (and ack any
          pending snapshot request). *)
  peer_obs : unit -> obs_slice list;
      (** Request fresh ring slices from the other workers (bounded
          wait; a wedged worker contributes its last published
          slice). *)
}
(** The fleet context of one core. Publications are thunks: a fleet
    without peers never forces them. *)

val local_ctx : ?active:int Atomic.t -> Crimson_core.Repo.t -> ctx
(** The one-worker fleet: worker 1 of 1, history rows written straight
    into the given (read-write) repository, no peers. [active] is the
    admission count to release sessions into (fresh by default). *)

val create : ?config:config -> ctx -> Crimson_core.Repo.t -> t
(** Build a core over an open repository — the one the [ctx] expects:
    read-write for {!local_ctx}, a private read-only open in a larger
    fleet. Sets the slowlog threshold; the trace sink and event journal
    are the server's to install. *)

val config : t -> config
val repo : t -> Crimson_core.Repo.t

type reply = {
  body : string;  (** Complete response line(s), newline-terminated. *)
  close : bool;  (** Close the connection after writing [body]. *)
}

val accept_session : t -> id:int -> session
(** Materialise session [id]. Admission happened at accept: the caller
    already charged [ctx.active]. *)

val close_session : t -> session -> unit
(** Idempotent; releases the session and its admission slot in
    [ctx.active]. *)

val session_id : session -> int
val session_requests : session -> int

val active_sessions : t -> int
(** Live sessions on {e this} core (not fleet-wide). *)

val handle_line : t -> session -> string -> reply
(** Execute one request line and produce its reply. Never raises:
    malformed input, unknown trees, query errors and timeouts all come
    back as error replies. Request timeouts are deadline checks
    ({!Crimson_obs.Deadline}) woven through node resolution — no
    signals, so N workers can time out independently. *)

val dispatch :
  t -> session -> Crimson_gateway.Request.t -> Crimson_gateway.Response.t
(** The transport-agnostic verb core both front ends share:
    {!handle_line} parses a wire line into a request and renders the
    response as one JSON line; {!handle_http} routes an HTTP exchange
    through the gateway onto the same function. Never raises. *)

val handle_http :
  t -> session -> Crimson_gateway.Http.request -> string * bool
(** Serve one decoded HTTP request through the gateway (routing,
    conditional GETs, content negotiation) and the shared {!dispatch},
    with the same per-request accounting as a wire line. Returns the
    fully rendered response bytes and whether the connection must close
    after writing them. *)

val validator : t -> Crimson_gateway.Request.t -> string option
(** The gateway's resource fingerprint for conditional GETs: catalog-row
    derived for tree resources, collection-row derived for consensus
    views, [None] for dynamic requests. *)

val protocol_error : t -> session -> string -> reply
(** Reply for transport-level violations (oversized line, NUL byte):
    counted as an error, [close = true]. *)

val publish_obs : ?force:bool -> t -> unit
(** Publish this worker's ring slice through [ctx.publish_obs] when the
    rings changed since the last publication (tracked by
    {!Crimson_obs.Trace.generation}); [~force:true] republishes — and
    thereby acks a pending snapshot request — even when unchanged. *)

val src : Logs.src
