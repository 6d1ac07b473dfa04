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
  events_max_bytes : int;
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
    events_max_bytes = 64 * 1024 * 1024;
    debug_verbs = false;
  }

(* [--workers auto]: one domain per recommended core, minus the
   coordinator's accept loop, never less than one worker. *)
let auto_workers () = max 1 (Domain.recommended_domain_count () - 1)

type session = {
  id : int;
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

(* A published snapshot of one session's accounting: pure data, safe to
   hand across domains. Workers publish their rows after every handled
   request; whichever worker answers TOP merges its own live table with
   the peers' latest snapshots. *)
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

(* A published snapshot of one worker's trace/slowlog rings: pure data
   (immutable record lists), safe to hand across domains. Workers
   republish when their ring generation moves; a peer answering SLOWLOG
   merges its own live rings with these, interleaved by timestamp. *)
type obs_slice = {
  o_worker : int;
  o_generation : int;
  o_slow : Trace.record list;
  o_recent : Trace.record list;
}

(* The fleet context every core runs in. All mutation crossing domain
   boundaries goes through it: the Query Repository write path, the
   shared admission count, and TOP/SLOWLOG visibility through
   publish/peers. Publications are thunks, so a fleet without peers
   never builds them. *)
type ctx = {
  worker_id : int; (* 1-based within the fleet *)
  workers : int;
  started_at : float;
  active : int Atomic.t;
  record_query :
    elapsed_ms:float ->
    pages:int ->
    cost:string ->
    text:string ->
    result:string ->
    unit;
  publish_sessions : (unit -> session_row list) -> unit;
  peer_sessions : unit -> session_row list;
  publish_obs : (unit -> obs_slice) -> unit;
  peer_obs : unit -> obs_slice list;
      (* Snapshot-request to every peer over the wake pipes: nudge them
         to republish, wait briefly, fall back to their last published
         slice when one is mid-request. *)
}

(* The one-worker fleet: history goes straight into [repo], which the
   core serves, and there are no peers to publish to. *)
let local_ctx ?(active = Atomic.make 0) repo =
  {
    worker_id = 1;
    workers = 1;
    started_at = Unix.gettimeofday ();
    active;
    record_query =
      (fun ~elapsed_ms ~pages ~cost ~text ~result ->
        ignore (Repo.record_query repo ~elapsed_ms ~pages ~cost ~text ~result));
    publish_sessions = ignore;
    peer_sessions = (fun () -> []);
    publish_obs = ignore;
    peer_obs = (fun () -> []);
  }

type t = {
  cfg : config;
  repo : Repo.t;
  ctx : ctx;
  trees : (int, Stored_tree.t) Hashtbl.t;  (* warm handles, by tree id *)
  sessions : (int, session) Hashtbl.t;  (* live sessions, for TOP *)
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
  (* Per-worker latency slice: merging these bucket-wise across workers
     reproduces the fleet server.request_ms histogram exactly (the
     fleet-quantile unit tests assert it), and makes per-worker skew
     visible to E16. *)
  mw_request_ms : Metrics.Histogram.t;
  mutable last_obs_gen : int; (* ring generation last published *)
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
    sessions = Hashtbl.create 16;
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
    last_obs_gen = -1;
  }

let config t = t.cfg
let repo t = t.repo
let active_sessions t = t.active
let session_id s = s.id
let session_requests s = s.requests

type reply = {
  body : string;
  close : bool;
}

(* Render a transport-agnostic response as one wire-protocol line. The
   success rendering is byte-identical to the historical replies (the
   parity test replays a golden transcript against it). *)
let render_wire (resp : Response.t) =
  match resp with
  | Response.Reply { fields; close; _ } -> { body = Wire.ok fields; close }
  | Response.Err { code; message; close } ->
      { body = Wire.error code message; close }

(* ----------------------------- Sessions ---------------------------- *)

let fleet_active t = Atomic.get t.ctx.active

let row_of_session t s =
  {
    r_worker = t.ctx.worker_id;
    r_session = s.id;
    r_tree = Option.map Stored_tree.name s.tree;
    r_requests = s.requests;
    r_ms = s.ms;
    r_pages = s.pages;
    r_bytes_out = s.bytes_out;
    r_started_at = s.started_at;
    r_last = s.last_line;
  }

let live_rows t =
  Hashtbl.fold (fun _ s acc -> row_of_session t s :: acc) t.sessions []

(* Offer this worker's current accounting to its peers so any sibling
   answering TOP sees it. Called after every handled request and on
   session close; rows per worker are bounded by its session count. *)
let publish t = t.ctx.publish_sessions (fun () -> live_rows t)

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
  Hashtbl.replace t.sessions id s;
  s

let close_session t s =
  if not s.closed then begin
    s.closed <- true;
    Hashtbl.remove t.sessions s.id;
    t.active <- t.active - 1;
    Metrics.Counter.incr t.m_closed;
    Atomic.decr t.ctx.active;
    Metrics.Gauge.set t.m_active (float_of_int (fleet_active t));
    publish t;
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
  { body = Wire.error Response.Bad_request msg; close = true }

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
      s.tree <- Some stored;
      Response.ok
        [
          ("tree", Json.Str (Stored_tree.name stored));
          ("nodes", num (Stored_tree.node_count stored));
          ("leaves", num (Stored_tree.leaf_count stored));
        ]

(* ------------------------------ Queries ------------------------------ *)

(* QUERY and PROFILE, on a tree or — with [stored = None] — on a
   collection, which needs no selected tree: one measured run under the
   request deadline, one history row, one reply. A trace gets the
   request's page and node-cache deltas, read off this domain's cost
   record only while a trace is collecting. *)
let measured_query t s ~profiled stored text =
  let cost0 = if Span.tracing () then Some (Crimson_obs.Cost.snapshot ()) else None in
  let result =
    Deadline.with_timeout t.cfg.request_timeout (fun () ->
        match stored with
        | None -> Coll_lang.measured ~profiled ~record:false t.repo text
        | Some stored ->
            Query_lang.measured ~profiled ~rng:s.rng ~record:false t.repo stored text)
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
      s.pages <- s.pages + pages;
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

let query t s ~profiled text =
  if Coll_lang.is_collection_query text then measured_query t s ~profiled None text
  else
    match s.tree with
    | None -> err t Response.No_tree_selected "no tree selected (USE <tree> first)"
    | Some stored -> measured_query t s ~profiled (Some stored) text

(* Rewrite a verb payload ("<collection> [threshold]") into the
   canonical call text recorded in the Query Repository: the dedicated
   CONSENSUS/SUPPORT/RFMATRIX/COLLSTATS verbs are sugar for QUERY. *)
let coll_call_text fn payload =
  let parts =
    String.split_on_char ' ' payload |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ name ] when not (String.contains name '\'') ->
      Ok (Printf.sprintf "%s('%s')" fn name)
  | [ name; th ] when fn = "consensus" && not (String.contains name '\'') -> (
      match float_of_string_opt th with
      | Some _ -> Ok (Printf.sprintf "%s('%s', %s)" fn name th)
      | None -> Error "CONSENSUS threshold must be a number")
  | _ ->
      Error
        (Printf.sprintf "%s takes a collection name%s"
           (String.uppercase_ascii fn)
           (if fn = "consensus" then " and an optional threshold" else ""))

let coll_verb t s fn payload =
  match coll_call_text fn payload with
  | Ok text -> measured_query t s ~profiled:false None text
  | Error msg -> err t Response.Bad_request msg

let explain_reply t text = function
  | Ok plan ->
      Response.ok
        [
          ("query", Json.Str text);
          ("plan", Json.List (List.map (fun l -> Json.Str l) plan));
        ]
  | Error msg -> err t Response.Bad_request msg

let explain t s text =
  if Coll_lang.is_collection_query text then
    explain_reply t text (Coll_lang.explain t.repo text)
  else
    match s.tree with
    | None -> err t Response.No_tree_selected "no tree selected (USE <tree> first)"
    | Some stored -> explain_reply t text (Query_lang.explain stored text)

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
  (* This worker's rows come from the live session table (so the TOP
     request itself is already visible as a session's last line); peers
     contribute their most recently published snapshots. *)
  let rows = live_rows t @ t.ctx.peer_sessions () |> List.sort compare_rows in
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

(* Fleet merge: this worker's live slowlog ring interleaved with every
   peer's published ring by timestamp (newest first). Each record's
   per-worker provenance rides in its meta ("worker": id). *)
let slowlog t n =
  let peers = t.ctx.peer_obs () in
  let rings = Trace.slowlog () :: List.map (fun s -> s.o_slow) peers in
  let entries = Crimson_obs.Fleet.merge_records ?n rings in
  Response.ok
    [
      ( "threshold_ms",
        match Trace.slowlog_threshold () with
        | Some th -> Json.Num th
        | None -> Json.Null );
      ("workers", num (1 + List.length peers));
      ("entries", Json.List (List.map Trace.record_to_json entries));
    ]

(* Republish this worker's ring slice when (or, [force]d by a peer's
   snapshot request, whether or not) the rings changed. *)
let publish_obs ?(force = false) t =
  let g = Trace.generation () in
  if force || g <> t.last_obs_gen then begin
    t.last_obs_gen <- g;
    t.ctx.publish_obs (fun () ->
        {
          o_worker = t.ctx.worker_id;
          o_generation = g;
          o_slow = Trace.slowlog ();
          o_recent = Trace.recent ();
        })
  end

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

(* Resolve ":tree" path segments: stored name first, then numeric id. *)
let tree_catalog_row t name =
  let trees = Repo.trees t.repo in
  match Table.find trees ~index:"by_name" ~key:(Schema.Trees.key_name name) with
  | Some (_, row) -> Some row
  | None -> (
      match int_of_string_opt name with
      | Some id -> (
          match Table.find trees ~index:"by_id" ~key:(Schema.Trees.key_id id) with
          | Some (_, row) -> Some row
          | None -> None)
      | None -> None)

let resolve_tree t name =
  match tree_catalog_row t name with
  | None -> None
  | Some row -> (
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

let catalog_rows t =
  let rows = ref [] in
  Table.scan (Repo.trees t.repo) (fun _ row -> rows := row :: !rows);
  List.sort
    (fun a b ->
      Int.compare (Record.get_int a Schema.Trees.c_id)
        (Record.get_int b Schema.Trees.c_id))
    !rows

let list_trees t ~page ~per_page =
  let rows = catalog_rows t in
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
  | Some row -> Response.ok (tree_meta_fields row)

let overview_req t ~tree ~depth =
  match resolve_tree t tree with
  | None -> no_such_tree t tree
  | Some stored ->
      let layer, entries = Summary.overview stored ~depth in
      let cluster (e : Summary.entry) =
        Json.Obj
          [
            ("sub", num e.Summary.sub);
            ("root", num e.Summary.root);
            ("parent_sub", num e.Summary.parent_sub);
            ("name", Json.Str e.Summary.name);
            ("nodes", num e.Summary.nodes);
            ("leaves", num e.Summary.leaves);
            ("height", num e.Summary.height);
            ("blen", Json.Num e.Summary.blen);
          ]
      in
      Response.ok
        [
          ("tree", Json.Str (Stored_tree.name stored));
          ("depth", num depth);
          ("layer", num layer);
          ("clusters", Json.List (List.map cluster entries));
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
  if Coll_lang.is_collection_query text then measured_query t s ~profiled:false None text
  else
    match resolve_tree t tree with
    | None -> no_such_tree t tree
    | Some stored -> measured_query t s ~profiled:false (Some stored) text

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
        match measured_query t s ~profiled:false None text with
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

(* Resource fingerprints for conditional GETs. Trees are immutable once
   loaded, so a catalog row is a complete validator for everything
   derived from that tree; the full catalog digest covers the listing;
   collection rows cover consensus views. Anything else is dynamic. *)
let validator t (req : Request.t) =
  match req with
  | Request.Doc -> Some "doc:v1"
  | Request.List_trees _ ->
      let buf = Buffer.create 64 in
      List.iter
        (fun row ->
          Buffer.add_string buf
            (Printf.sprintf "%d:%s:%d;"
               (Record.get_int row Schema.Trees.c_id)
               (Record.get_text row Schema.Trees.c_name)
               (Record.get_int row Schema.Trees.c_nodes)))
        (catalog_rows t);
      Some ("catalog:" ^ Buffer.contents buf)
  | Request.Tree_info name
  | Request.Overview { tree = name; _ }
  | Request.Clade { tree = name; _ } -> (
      match tree_catalog_row t name with
      | None -> None
      | Some row ->
          Some
            (Printf.sprintf "tree:%d:%s:%d:%d:%d:%d"
               (Record.get_int row Schema.Trees.c_id)
               (Record.get_text row Schema.Trees.c_name)
               (Record.get_int row Schema.Trees.c_f)
               (Record.get_int row Schema.Trees.c_layers)
               (Record.get_int row Schema.Trees.c_nodes)
               (Record.get_int row Schema.Trees.c_leaves)))
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
  | Request.Consensus p -> coll_verb t s "consensus" p
  | Request.Support p -> coll_verb t s "support" p
  | Request.Rfmatrix p -> coll_verb t s "rfmatrix" p
  | Request.Collstats p -> coll_verb t s "collstats" p
  | Request.Top -> top t
  | Request.Stats -> stats t
  | Request.Slowlog n -> slowlog t n
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
  s.requests <- s.requests + 1;
  s.last_line <- truncate_line line;
  (* Slice before global (see [err]): keeps sum(slices) >= global for
     concurrent scrapes. *)
  Metrics.Counter.incr t.mw_requests;
  Metrics.Counter.incr t.m_requests;
  Metrics.Counter.incr t.m_sess_requests;
  (* The per-request trace: one span tree rooted at server.request_ms
     (which the Span layer also feeds as a histogram, so STATS scrapes
     keep working), tagged with the session/request ids and the request
     line — that text is what the slowlog shows next to the tree. *)
  let resp, elapsed_ms =
    Trace.timed ~name:"server.request_ms"
      ~meta:
        [
          ("worker", num t.ctx.worker_id);
          ("session", num s.id);
          ("request", num s.requests);
          ("line", Json.Str (truncate_line line));
        ]
      f
  in
  s.ms <- s.ms +. elapsed_ms;
  Metrics.Histogram.observe t.mw_request_ms elapsed_ms;
  Metrics.Gauge.add t.m_sess_ms elapsed_ms;
  Log.debug (fun m ->
      m "worker=%d session=%d req=%d %.3fms %s" t.ctx.worker_id s.id s.requests elapsed_ms
        (if String.length line > 80 then String.sub line 0 80 ^ "…" else line));
  resp

let account_bytes t s n =
  s.bytes_out <- s.bytes_out + n;
  Metrics.Counter.add t.m_sess_bytes n;
  publish t;
  publish_obs t

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
