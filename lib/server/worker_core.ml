module Repo = Crimson_core.Repo
module Schema = Crimson_core.Schema
module Stored_tree = Crimson_core.Stored_tree
module Query_lang = Crimson_core.Query_lang
module Summary = Crimson_core.Summary
module Clade = Crimson_core.Clade
module Projection = Crimson_core.Projection
module Newick = Crimson_formats.Newick
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Collection = Crimson_collection.Collection
module Coll_lang = Crimson_collection.Coll_lang
module Request = Crimson_gateway.Request
module Response = Crimson_gateway.Response
module Router = Crimson_gateway.Router
module Gateway = Crimson_gateway.Gateway
module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Trace = Crimson_obs.Trace
module Deadline = Crimson_obs.Deadline
module Prng = Crimson_util.Prng

let src = Logs.Src.create "crimson.server" ~doc:"Crimson query service"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  max_sessions : int;
  request_timeout : float;
  max_line : int;
  slowlog_ms : float option;
  trace_out : string option;
  trace_max_bytes : int;
  flush_interval : float;
  workers : int;
  (* Fleet health plane. [obs_listen] starts the HTTP observability
     endpoint; [stall_after] is how long a worker may go silent (no loop
     heartbeat, no in-flight request) before the watchdog flags it;
     [stall_factor] is the k in "in-flight for more than k x its
     deadline"; [events_out] targets the structured JSONL event
     journal. [debug_verbs] unlocks fault-injection verbs (SLEEP). *)
  obs_listen : Wire.addr option;
  (* HTTP data-service gateway: a second listen socket serving the /v1
     resource API through the same worker fleet and verb handlers. *)
  http_listen : Wire.addr option;
  stall_after : float;
  stall_factor : float;
  events_out : string option;
  debug_verbs : bool;
}

let default_config =
  {
    max_sessions = 64;
    request_timeout = 5.0;
    max_line = 65536;
    slowlog_ms = None;
    trace_out = None;
    trace_max_bytes = 64 * 1024 * 1024;
    flush_interval = 5.0;
    workers = 1;
    obs_listen = None;
    http_listen = None;
    stall_after = 10.0;
    stall_factor = 4.0;
    events_out = None;
    debug_verbs = false;
  }

(* [--workers auto]: one domain per recommended core, minus the
   coordinator's accept loop, never less than one worker. *)
let auto_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* The TOP fields (tree, requests, ms, pages, bytes_out, last_line) are
   written by the owning core under the fleet's session lock, which any
   core answering TOP holds while it reads them. *)
type session = {
  id : int;
  worker : int;
  started_at : float;
  mutable tree : Stored_tree.t option;
  mutable rng : Prng.t;
  mutable requests : int;
  (* Cumulative resource accounting, reported by TOP and mirrored into
     the server.session.* aggregate metrics. *)
  mutable ms : float;
  mutable pages : int;
  mutable bytes_out : int;
  mutable last_line : string;
  mutable closed : bool;
}

(* Every core's live sessions, shared by the fleet: the admission count
   charged at accept, and the table TOP reads, behind one mutex. *)
type sessions = {
  admitted : int Atomic.t;
  lock : Mutex.t;
  live : (int, session) Hashtbl.t;
}

let create_sessions () =
  { admitted = Atomic.make 0; lock = Mutex.create (); live = Hashtbl.create 16 }

let admitted sessions = sessions.admitted

(* One session's TOP fields, copied under the session lock. *)
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

(* The fleet context every core runs in. All mutation crossing domain
   boundaries goes through it: the Query Repository write path and the
   shared sessions (admission count and TOP's table). *)
type ctx = {
  worker_id : int; (* 1-based within the fleet *)
  workers : int;
  started_at : float;
  sessions : sessions;
  record_query :
    elapsed_ms:float ->
    pages:int ->
    cost:string ->
    text:string ->
    result:string ->
    unit;
}

(* The one-worker fleet: history goes straight into [repo], which the
   core serves. *)
let local_ctx ?(sessions = create_sessions ()) repo =
  {
    worker_id = 1;
    workers = 1;
    started_at = Unix.gettimeofday ();
    sessions;
    record_query =
      (fun ~elapsed_ms ~pages ~cost ~text ~result ->
        ignore (Repo.record_query repo ~elapsed_ms ~pages ~cost ~text ~result));
  }

type t = {
  cfg : config;
  repo : Repo.t;
  ctx : ctx;
  trees : (int, Stored_tree.t) Hashtbl.t;  (* warm handles, by tree id *)
  mutable active : int;
  (* Pre-created metric handles: the per-request path does no name
     lookups. The server.* family is process-global — counters are
     atomic, so with N workers these are already fleet-wide sums. *)
  m_requests : Metrics.Counter.t;
  m_errors : Metrics.Counter.t;
  m_timeouts : Metrics.Counter.t;
  m_accepted : Metrics.Counter.t;
  m_closed : Metrics.Counter.t;
  m_active : Metrics.Gauge.t;
  (* Aggregates over every session that ever ran (requests, wall ms,
     pages touched, reply bytes) — the server.session.* family. *)
  m_sess_requests : Metrics.Counter.t;
  m_sess_ms : Metrics.Gauge.t;
  m_sess_pages : Metrics.Counter.t;
  m_sess_bytes : Metrics.Counter.t;
  (* This worker's own slice (the server.worker.<id> family): the fleet-wide
     total equals the sum over workers, which the coordinator tests
     assert directly. *)
  mw_requests : Metrics.Counter.t;
  mw_errors : Metrics.Counter.t;
  mw_timeouts : Metrics.Counter.t;
  (* Per-worker latency slice: its sample counts sum to the fleet
     server.request_ms histogram's (the observability e2e test asserts
     it at quiescence), and it makes per-worker skew visible to E16. *)
  mw_request_ms : Metrics.Histogram.t;
}

let create ?(config = default_config) ctx repo =
  (* Register the request-latency histogram up front so a STATS before
     the first QUERY already shows it (Span.timed feeds it by name). *)
  ignore (Metrics.histogram "server.request_ms");
  Trace.set_slowlog_ms config.slowlog_ms;
  let wname suffix = Printf.sprintf "server.worker.%d.%s" ctx.worker_id suffix in
  {
    cfg = config;
    repo;
    ctx;
    trees = Hashtbl.create 8;
    active = 0;
    m_requests = Metrics.counter "server.requests";
    m_errors = Metrics.counter "server.errors";
    m_timeouts = Metrics.counter "server.timeouts";
    m_accepted = Metrics.counter "server.sessions.accepted";
    m_closed = Metrics.counter "server.sessions.closed";
    m_active = Metrics.gauge "server.sessions.active";
    m_sess_requests = Metrics.counter "server.session.requests";
    m_sess_ms = Metrics.gauge "server.session.ms";
    m_sess_pages = Metrics.counter "server.session.pages";
    m_sess_bytes = Metrics.counter "server.session.bytes_out";
    mw_requests = Metrics.counter (wname "requests");
    mw_errors = Metrics.counter (wname "errors");
    mw_timeouts = Metrics.counter (wname "timeouts");
    mw_request_ms = Metrics.histogram (wname "request_ms");
  }

let config t = t.cfg
let active_sessions t = t.active
let session_id s = s.id

type reply = {
  body : string;
  close : bool;
}

(* Render a transport-agnostic response as one wire-protocol line. The
   success rendering is byte-identical to the historical replies (the
   parity test replays a golden transcript against it). *)
let render_wire (resp : Response.t) =
  match resp with
  | Response.Reply { fields; close; _ } -> { body = Gateway.reply_body fields; close }
  | Response.Err { code; message; close } ->
      { body = Gateway.error_body code message; close }

(* ----------------------------- Sessions ---------------------------- *)

let fleet_active t = Atomic.get t.ctx.sessions.admitted

(* The owning core writes a session's TOP fields between these. *)
let lock t = Mutex.lock t.ctx.sessions.lock
let unlock t = Mutex.unlock t.ctx.sessions.lock

let row_of_session s =
  {
    r_worker = s.worker;
    r_session = s.id;
    r_tree = Option.map Stored_tree.name s.tree;
    r_requests = s.requests;
    r_ms = s.ms;
    r_pages = s.pages;
    r_bytes_out = s.bytes_out;
    r_started_at = s.started_at;
    r_last = s.last_line;
  }

(* Every core's live sessions, read under the session lock: a session
   whose request is still running shows with that request as its last
   line. *)
let live_rows t =
  Mutex.protect t.ctx.sessions.lock (fun () ->
      Hashtbl.fold (fun _ s acc -> row_of_session s :: acc) t.ctx.sessions.live [])

(* Admission control and id allocation already happened at accept
   (against the shared atomic), so the core just materialises the
   session. *)
let accept_session t ~id =
  t.active <- t.active + 1;
  Metrics.Counter.incr t.m_accepted;
  Metrics.Gauge.set t.m_active (float_of_int (fleet_active t));
  Log.debug (fun m ->
      m "session=%d accepted by worker %d (%d local)" id t.ctx.worker_id t.active);
  let s =
    {
      id;
      worker = t.ctx.worker_id;
      started_at = Unix.gettimeofday ();
      tree = None;
      rng = Prng.create 0;
      requests = 0;
      ms = 0.0;
      pages = 0;
      bytes_out = 0;
      last_line = "";
      closed = false;
    }
  in
  lock t;
  Hashtbl.replace t.ctx.sessions.live id s;
  unlock t;
  s

let close_session t s =
  if not s.closed then begin
    s.closed <- true;
    lock t;
    Hashtbl.remove t.ctx.sessions.live s.id;
    unlock t;
    t.active <- t.active - 1;
    Metrics.Counter.incr t.m_closed;
    Atomic.decr t.ctx.sessions.admitted;
    Metrics.Gauge.set t.m_active (float_of_int (fleet_active t));
    Log.debug (fun m -> m "session=%d closed after %d requests" s.id s.requests)
  end

(* --------------------------- Query recording ------------------------ *)

(* The Query Repository is the one write path. A one-worker core serves
   the read-write repository and inserts directly; a larger fleet's
   workers hold read-only opens, so the row travels over the serialized
   channel to the calling domain, which holds the only writable handle. *)
let record t ?(cost = "") ~elapsed_ms ~pages ~text ~result () =
  t.ctx.record_query ~elapsed_ms ~pages ~cost ~text ~result

(* ----------------------------- Handlers ---------------------------- *)

let num n = Json.Num (float_of_int n)

(* Slice-before-global increment order (here and for every counter that
   has a per-worker slice): a concurrent scrape that reads the global
   counter first can then never see sum(slices) < global, so the
   "merged never exceeds the sum of slices" invariant holds even
   mid-request. *)
let err t code msg =
  Metrics.Counter.incr t.mw_errors;
  Metrics.Counter.incr t.m_errors;
  Response.err code msg

let timeout_err t =
  Metrics.Counter.incr t.mw_timeouts;
  Metrics.Counter.incr t.m_timeouts;
  err t Response.Timeout
    (Printf.sprintf "query timed out after %gs" t.cfg.request_timeout)

let protocol_error t s msg =
  Metrics.Counter.incr t.mw_errors;
  Metrics.Counter.incr t.m_errors;
  Log.info (fun m -> m "session=%d protocol error: %s" s.id msg);
  { body = Gateway.error_body Response.Bad_request msg; close = true }

let hello t s =
  let trees = List.map (fun (_, name) -> Json.Str name) (Stored_tree.list_all t.repo) in
  let colls = List.map (fun (_, name) -> Json.Str name) (Collection.list_all t.repo) in
  Response.ok
    [
      ("server", Json.Str "crimson");
      ("version", Json.Str "1.0.0");
      ("protocol", num 1);
      ("verbs", Json.List (List.map (fun v -> Json.Str v) Request.wire_verbs));
      ("session", num s.id);
      ("max_line", num t.cfg.max_line);
      ("trees", Json.List trees);
      ("collections", Json.List colls);
    ]

(* Share one warm handle per tree across this worker's sessions so
   decoded-node views survive connection churn. Handles are per-worker —
   shared-nothing — so no cross-domain locking. *)
let warm t fresh =
  let id = Stored_tree.id fresh in
  match Hashtbl.find_opt t.trees id with
  | Some shared -> shared
  | None ->
      Hashtbl.add t.trees id fresh;
      fresh

let use t s name =
  match Stored_tree.open_name t.repo name with
  | exception Stored_tree.Unknown_tree _ ->
      err t Response.Unknown_tree
        (Printf.sprintf "no tree named %S (HELLO lists the stored trees)" name)
  | fresh ->
      let stored = warm t fresh in
      lock t;
      s.tree <- Some stored;
      unlock t;
      Response.ok
        [
          ("tree", Json.Str (Stored_tree.name stored));
          ("nodes", num (Stored_tree.node_count stored));
          ("leaves", num (Stored_tree.leaf_count stored));
        ]

(* ------------------------------ Queries ------------------------------ *)

(* One measured run under the request deadline, one history row, one
   reply, for a call of either table: a tree function's call carries the
   tree as [stored]. A trace gets the request's page and node-cache
   deltas, read off this domain's cost record only while a trace is
   collecting. *)
let measured_query t s ~profiled ?stored table env ~text call =
  let cost0 = if Span.collecting () then Some (Crimson_obs.Cost.snapshot ()) else None in
  let result =
    Deadline.with_timeout t.cfg.request_timeout (fun () ->
        Query_lang.measured_in table env ~profiled ~record:false t.repo ~text call)
  in
  (match (cost0, stored) with
  | Some c0, Some stored ->
      let c1 = Crimson_obs.Cost.current () in
      Span.attr "tree" (num (Stored_tree.id stored));
      Span.attr "pages" (num (Crimson_obs.Cost.pages c1 - Crimson_obs.Cost.pages c0));
      Span.attr "cache_hits" (num (c1.cache_hits - c0.cache_hits));
      Span.attr "cache_misses" (num (c1.cache_misses - c0.cache_misses))
  | _ -> ());
  match result with
  | Ok (Ok ((o : Query_lang.outcome), elapsed_ms, pages, report)) ->
      if cost0 <> None && stored <> None then
        Span.attr "result_chars" (num (String.length o.result));
      let cost =
        Option.map (fun r -> Json.to_string (Crimson_obs.Profile.cost_summary r)) report
      in
      record t ?cost ~elapsed_ms ~pages ~text ~result:o.result ();
      lock t;
      s.pages <- s.pages + pages;
      unlock t;
      Metrics.Counter.add t.m_sess_pages pages;
      Response.ok
        ([
           ("result", Json.Str o.result);
           ("elapsed_ms", Json.Num elapsed_ms);
           ("pages", num pages);
         ]
        @
        match report with
        | Some r -> [ ("profile", Crimson_obs.Profile.report_to_json r) ]
        | None -> [])
  | Ok (Error msg) -> err t Response.Bad_request msg
  | Error `Timeout -> timeout_err t

let session_tree t s () =
  match s.tree with
  | Some stored -> Ok stored
  | None -> Error (err t Response.No_tree_selected "no tree selected (USE <tree> first)")

(* A query text is parsed once, and its function name picks the table:
   a collection function needs no tree; a tree function, or a text that
   does not parse, needs the one [tree] finds, or answers its error. *)
let with_call t text ~tree ~coll ~on_tree =
  match Query_lang.parse text with
  | Ok call when Query_lang.mem Coll_lang.table call.Query_lang.fn -> coll call
  | parsed -> (
      match (tree (), parsed) with
      | Error resp, _ -> resp
      | Ok _, Error msg -> err t Response.Bad_request msg
      | Ok stored, Ok call -> on_tree stored call)

(* QUERY and PROFILE on the session's tree, POST /v1/trees/:tree/query
   on the named one. *)
let query t s ~profiled ?(tree = session_tree t s) text =
  with_call t text ~tree
    ~coll:(measured_query t s ~profiled Coll_lang.table t.repo ~text)
    ~on_tree:(fun stored ->
      measured_query t s ~profiled ~stored Query_lang.table
        { Query_lang.stored; rng = s.rng } ~text)

let explain t s text =
  let reply = function
    | Ok plan ->
        Response.ok
          [
            ("query", Json.Str text);
            ("plan", Json.List (List.map (fun l -> Json.Str l) plan));
          ]
    | Error msg -> err t Response.Bad_request msg
  in
  with_call t text ~tree:(session_tree t s)
    ~coll:(fun call -> reply (Query_lang.explain_in Coll_lang.table t.repo call))
    ~on_tree:(fun stored call ->
      let env = { Query_lang.stored; rng = s.rng } in
      reply (Query_lang.explain_in Query_lang.table env call))

let row_to_json now row =
  Json.Obj
    [
      ("worker", num row.r_worker);
      ("session", num row.r_session);
      ( "tree",
        match row.r_tree with Some name -> Json.Str name | None -> Json.Null );
      ("requests", num row.r_requests);
      ("ms", Json.Num row.r_ms);
      ("pages", num row.r_pages);
      ("bytes_out", num row.r_bytes_out);
      ("age_s", Json.Num (now -. row.r_started_at));
      ("last", Json.Str row.r_last);
    ]

(* Cost hogs first: cumulative wall time desc, tie-broken on worker id
   then session id so the order is total — equal-cost rows (fresh
   sessions at 0 ms, say) can never flicker between TOP refreshes. *)
let compare_rows a b =
  match Float.compare b.r_ms a.r_ms with
  | 0 -> compare (a.r_worker, a.r_session) (b.r_worker, b.r_session)
  | c -> c

let top t =
  Crimson_obs.Runtime.refresh ();
  let now = Unix.gettimeofday () in
  let rows = List.sort compare_rows (live_rows t) in
  Response.ok
    [
      ("uptime_s", Json.Num (now -. t.ctx.started_at));
      ("active", num (fleet_active t));
      ("workers", num t.ctx.workers);
      ("requests", num (Metrics.Counter.value t.m_requests));
      ("sessions", Json.List (List.map (row_to_json now) rows));
    ]

let stats _t =
  Crimson_obs.Runtime.refresh ();
  Response.ok [ ("metrics", Metrics.to_json ()) ]

(* Every domain's slowlog entries, newest first; each record's worker
   rides in its meta. SLOWLOG and /slowlog both render this. *)
let slowlog_fields ~workers n =
  [
    ( "threshold_ms",
      match Trace.slowlog_threshold () with Some th -> Json.Num th | None -> Json.Null );
    ("workers", num workers);
    ("entries", Json.List (List.map Trace.record_to_json (Trace.slowlog ?n ())));
  ]

let metrics_reply _t =
  Crimson_obs.Runtime.refresh ();
  Response.ok
    [
      ("format", Json.Str "prometheus");
      ("text", Json.Str (Metrics.to_prometheus ()));
    ]

let truncate_line line =
  if String.length line > 512 then String.sub line 0 512 ^ "…" else line

(* Debug fault injection: wedge this worker inside a request so the
   watchdog's in-flight stall path can be exercised on demand. *)
let sleep_verb t ms =
  if not t.cfg.debug_verbs then
    err t Response.Disabled "SLEEP is disabled (serve with debug verbs enabled)"
  else begin
    Unix.sleepf (ms /. 1000.0);
    Response.ok [ ("slept_ms", Json.Num ms) ]
  end

(* ----------------------- HTTP resource handlers --------------------- *)

(* The /v1 resource handlers keep their reply fields deterministic (no
   elapsed_ms/pages noise): a cacheable response must render identically
   until the backing catalog rows change, or ETags would never 304. *)

(* Resolve ":tree" path segments to the catalog row and its rid: stored
   name first, then numeric id. *)
let tree_catalog_row t name =
  let trees = Repo.trees t.repo in
  match Table.find trees ~index:"by_name" ~key:(Schema.Trees.key_name name) with
  | Some _ as found -> found
  | None ->
      Option.bind (int_of_string_opt name) (fun id ->
          Table.find trees ~index:"by_id" ~key:(Schema.Trees.key_id id))

let resolve_tree t name =
  match tree_catalog_row t name with
  | None -> None
  | Some (_, row) -> (
      let id = Record.get_int row Schema.Trees.c_id in
      match Hashtbl.find_opt t.trees id with
      | Some shared -> Some shared
      | None -> (
          match Stored_tree.open_id t.repo id with
          | fresh -> Some (warm t fresh)
          | exception Stored_tree.Unknown_tree _ -> None))

let no_such_tree t name =
  err t Response.Unknown_tree
    (Printf.sprintf "no tree named %S (GET /v1/trees lists the catalog)" name)

let tree_meta_fields row =
  [
    ("id", num (Record.get_int row Schema.Trees.c_id));
    ("name", Json.Str (Record.get_text row Schema.Trees.c_name));
    ("f", num (Record.get_int row Schema.Trees.c_f));
    ("layers", num (Record.get_int row Schema.Trees.c_layers));
    ("nodes", num (Record.get_int row Schema.Trees.c_nodes));
    ("leaves", num (Record.get_int row Schema.Trees.c_leaves));
  ]

(* The catalog's (rid, row) pairs in id order. *)
let catalog_rows t =
  let rows = ref [] in
  Table.scan (Repo.trees t.repo) (fun rid row -> rows := (rid, row) :: !rows);
  List.sort
    (fun (_, a) (_, b) ->
      Int.compare (Record.get_int a Schema.Trees.c_id)
        (Record.get_int b Schema.Trees.c_id))
    !rows

let list_trees t ~page ~per_page =
  let rows = List.map snd (catalog_rows t) in
  let total = List.length rows in
  (* [page] is 1-based (the router floors it at 1). *)
  let first = (page - 1) * per_page in
  let slice =
    List.filteri (fun i _ -> i >= first && i < first + per_page) rows
  in
  Response.ok
    [
      ("page", num page);
      ("per_page", num per_page);
      ("total", num total);
      ("trees", Json.List (List.map (fun r -> Json.Obj (tree_meta_fields r)) slice));
    ]

let tree_info t name =
  match tree_catalog_row t name with
  | None -> no_such_tree t name
  | Some (_, row) -> Response.ok (tree_meta_fields row)

let cluster_json (e : Summary.entry) =
  Json.Obj
    [
      ("sub", num e.sub);
      ("root", num e.root);
      ("parent_sub", num e.parent_sub);
      ("name", Json.Str e.name);
      ("nodes", num e.nodes);
      ("leaves", num e.leaves);
      ("height", num e.height);
      ("blen", Json.Num e.blen);
    ]

(* Each cluster is written as the summary scan decodes it, into the
   domain's render buffer: neither a list of entries nor a reply-sized
   JSON value is built, and the array enters the reply as raw text. *)
let overview_req t ~tree ~depth =
  match resolve_tree t tree with
  | None -> no_such_tree t tree
  | Some stored ->
      let layer = ref 0 in
      let clusters =
        Json.render (fun buf ->
            Buffer.add_char buf '[';
            layer :=
              Summary.iter stored ~depth (fun e ->
                  if Buffer.length buf > 1 then Buffer.add_char buf ',';
                  Json.to_buffer buf (cluster_json e));
            Buffer.add_char buf ']')
      in
      Response.ok
        [
          ("tree", Json.Str (Stored_tree.name stored));
          ("depth", num depth);
          ("layer", num !layer);
          ("clusters", Json.Raw clusters);
        ]

let clade_req t ~tree ~species =
  match resolve_tree t tree with
  | None -> no_such_tree t tree
  | Some stored -> (
      match Stored_tree.leaf_ids_by_names stored species with
      | Error name ->
          err t Response.Bad_request
            (Printf.sprintf "unknown species %S in tree %S" name
               (Stored_tree.name stored))
      | Ok nodes ->
          let root = Clade.root_of stored nodes in
          let leaves = Clade.size stored nodes in
          let newick = Newick.to_string (Projection.project stored nodes) in
          Response.ok ~newick
            [
              ("tree", Json.Str (Stored_tree.name stored));
              ("species", Json.List (List.map (fun s -> Json.Str s) species));
              ("root", num root);
              ( "name",
                match Stored_tree.node_name stored root with
                | Some n -> Json.Str n
                | None -> Json.Null );
              ("leaves", num leaves);
              ("newick", Json.Str newick);
            ])

let tree_query_req t s ~tree ~text =
  query t s ~profiled:false text ~tree:(fun () ->
      match resolve_tree t tree with
      | Some stored -> Ok stored
      | None -> Error (no_such_tree t tree))

let consensus_view t s ~coll ~threshold =
  let colls = Repo.collections t.repo in
  if String.contains coll '\'' then
    err t Response.Bad_request "collection names cannot contain quotes"
  else
    match
      Table.find colls ~index:"by_name" ~key:(Schema.Collections.key_name coll)
    with
    | None ->
        err t Response.Unknown_collection
          (Printf.sprintf "no collection named %S" coll)
    | Some _ -> (
        let text =
          match threshold with
          | None -> Printf.sprintf "consensus('%s')" coll
          | Some th -> Printf.sprintf "consensus('%s', %g)" coll th
        in
        match query t s ~profiled:false text with
        | Response.Reply { fields; close; _ } ->
            (* Re-shape onto deterministic, cacheable fields: drop the
               elapsed_ms/pages noise, keep the Newick consensus both as
               a field and as the negotiable plain-text alternative. *)
            let result =
              match List.assoc_opt "result" fields with
              | Some (Json.Str s) -> s
              | _ -> ""
            in
            Response.Reply
              {
                fields =
                  [
                    ("collection", Json.Str coll);
                    ( "threshold",
                      match threshold with
                      | Some th -> Json.Num th
                      | None -> Json.Null );
                    ("consensus", Json.Str result);
                  ];
                newick = Some result;
                close;
              }
        | Response.Err _ as e -> e)

let doc_req _t = Response.ok [ ("routes", Router.doc_routes) ]

(* Every catalog field a reply renders (the name quoted, so that no name
   reads as a separator), and the row's rid. A tree deleted and loaded
   again takes the same id (the largest live id + 1), but never the same
   rid: heap slots are not reused, and a reopen keeps them. *)
let tree_fingerprint (rid, row) =
  Printf.sprintf "%d:%d:%S:%d:%d:%d:%d" rid
    (Record.get_int row Schema.Trees.c_id)
    (Record.get_text row Schema.Trees.c_name)
    (Record.get_int row Schema.Trees.c_f)
    (Record.get_int row Schema.Trees.c_layers)
    (Record.get_int row Schema.Trees.c_nodes)
    (Record.get_int row Schema.Trees.c_leaves)

(* Resource fingerprints for conditional GETs. Trees are immutable once
   loaded, so a catalog row is a complete validator for everything
   derived from that tree; the catalog's rows cover the listing;
   collection rows cover consensus views. Anything else is dynamic. *)
let validator t (req : Request.t) =
  match req with
  | Request.Doc -> Some "doc:v1"
  | Request.List_trees _ ->
      Some ("catalog:" ^ String.concat ";" (List.map tree_fingerprint (catalog_rows t)))
  | Request.Tree_info name
  | Request.Overview { tree = name; _ }
  | Request.Clade { tree = name; _ } ->
      Option.map (fun found -> "tree:" ^ tree_fingerprint found) (tree_catalog_row t name)
  | Request.Consensus_view { coll; _ } -> (
      match
        Table.find (Repo.collections t.repo) ~index:"by_name"
          ~key:(Schema.Collections.key_name coll)
      with
      | None -> None
      | Some (_, row) ->
          Some
            (Printf.sprintf "coll:%d:%s:%d:%d:%d"
               (Record.get_int row Schema.Collections.c_id)
               (Record.get_text row Schema.Collections.c_name)
               (Record.get_int row Schema.Collections.c_n_taxa)
               (Record.get_int row Schema.Collections.c_n_trees)
               (Record.get_int row Schema.Collections.c_next_bip)))
  | _ -> None

(* ------------------------------ Dispatch ---------------------------- *)

(* Untrusted network input can reach deep storage code through the
   resource handlers; turn surviving exceptions into a structured 500
   instead of killing the worker loop. *)
let guarded t f =
  match f () with
  | resp -> resp
  | exception Out_of_memory -> raise Out_of_memory
  | exception Stack_overflow -> raise Stack_overflow
  | exception e -> err t Response.Internal (Printexc.to_string e)

(* The transport-agnostic verb core both front ends share: [handle_line]
   parses a wire line into a request and renders the response as one
   JSON line; [handle_http] routes an HTTP exchange through the gateway
   onto the same function. Never raises. *)
let dispatch t s (req : Request.t) : Response.t =
  match req with
  | Request.Hello -> hello t s
  | Request.Use name -> use t s name
  | Request.Seed n ->
      s.rng <- Prng.create n;
      Response.ok [ ("seed", num n) ]
  | Request.Query text -> query t s ~profiled:false text
  | Request.Explain text -> explain t s text
  | Request.Profile text -> query t s ~profiled:true text
  | Request.Top -> top t
  | Request.Stats -> stats t
  | Request.Slowlog n -> Response.ok (slowlog_fields ~workers:t.ctx.workers n)
  | Request.Metrics -> metrics_reply t
  | Request.Sleep ms -> sleep_verb t ms
  | Request.Quit -> Response.ok ~close:true [ ("bye", Json.Bool true) ]
  | Request.List_trees { page; per_page } ->
      guarded t (fun () -> list_trees t ~page ~per_page)
  | Request.Tree_info name -> guarded t (fun () -> tree_info t name)
  | Request.Overview { tree; depth } ->
      guarded t (fun () -> overview_req t ~tree ~depth)
  | Request.Clade { tree; species } ->
      guarded t (fun () -> clade_req t ~tree ~species)
  | Request.Tree_query { tree; text } ->
      guarded t (fun () -> tree_query_req t s ~tree ~text)
  | Request.Consensus_view { coll; threshold } ->
      guarded t (fun () -> consensus_view t s ~coll ~threshold)
  | Request.Doc -> doc_req t

(* ----------------------------- Accounting --------------------------- *)

(* Per-request accounting shared by both front ends: session counters,
   the request span (slowlog + server.request_ms histogram), latency and
   byte bookkeeping. [line] is the request's display text — the wire
   line verbatim, or "GET /v1/..." for gateway requests. *)
let accounted t s ~line f =
  let last_line = truncate_line line in
  lock t;
  s.requests <- s.requests + 1;
  s.last_line <- last_line;
  unlock t;
  (* Slice before global (see [err]): keeps sum(slices) >= global for
     concurrent scrapes. *)
  Metrics.Counter.incr t.mw_requests;
  Metrics.Counter.incr t.m_requests;
  Metrics.Counter.incr t.m_sess_requests;
  (* The per-request trace: one span tree rooted at server.request_ms,
     collected only while the slowlog or the sink reads it, tagged with
     the session/request ids and the request line — that text is what
     the slowlog shows next to the tree. The Span layer feeds
     server.request_ms as a histogram either way, so STATS scrapes keep
     working. *)
  let resp, elapsed_ms =
    Trace.timed ~name:"server.request_ms"
      ~meta:
        [
          ("worker", num t.ctx.worker_id);
          ("session", num s.id);
          ("request", num s.requests);
          ("line", Json.Str last_line);
        ]
      f
  in
  lock t;
  s.ms <- s.ms +. elapsed_ms;
  unlock t;
  Metrics.Histogram.observe t.mw_request_ms elapsed_ms;
  Metrics.Gauge.add t.m_sess_ms elapsed_ms;
  Log.debug (fun m ->
      m "worker=%d session=%d req=%d %.3fms %s" t.ctx.worker_id s.id s.requests elapsed_ms
        (if String.length line > 80 then String.sub line 0 80 ^ "…" else line));
  resp

let account_bytes t s n =
  lock t;
  s.bytes_out <- s.bytes_out + n;
  unlock t;
  Metrics.Counter.add t.m_sess_bytes n

let handle_line t s line =
  let resp =
    accounted t s ~line (fun () ->
        match Wire.parse_command line with
        | Error (code, msg) -> err t code msg
        | Ok req -> dispatch t s req)
  in
  let reply = render_wire resp in
  account_bytes t s (String.length reply.body);
  reply

(* One decoded HTTP exchange, served through the same dispatch and
   accounting as a wire line. Returns the fully rendered response bytes
   and whether the connection must close afterwards. *)
let handle_http t s (r : Crimson_gateway.Http.request) =
  let handlers =
    {
      Gateway.dispatch =
        (fun req _fmt ->
          let line = r.Crimson_gateway.Http.meth ^ " " ^ r.Crimson_gateway.Http.target in
          accounted t s ~line (fun () -> dispatch t s req));
      validator = (fun req -> validator t req);
    }
  in
  let body, close = Gateway.respond handlers r in
  account_bytes t s (String.length body);
  (body, close)
