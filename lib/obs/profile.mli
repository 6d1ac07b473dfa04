(** Scoped query cost accounting.

    A profile is taken around a unit of work (one query, one request).
    Every instrumented layer below — pager, B+tree, table, WAL, raw I/O,
    node-view cache — charges what it consumes to the calling domain's
    {!Cost} record, always; a profile is the record's delta over its
    extent: pages read and written, cache hits and misses, bytes
    decoded, cursor steps, fsyncs. Allocation is the domain's own
    [Gc.minor_words] and [Gc.counters] delta.

    - {b domain-local.} Each domain profiles its own work: a worker's
      report never includes a sibling's charges or allocation.
    - {b scoped, not global.} Unlike the {!Metrics} registry, which
      reads the records' running totals, a profile exists only for the
      dynamic extent of {!profile} and yields an immutable {!report}.
    - {b staged.} {!stage} labels phases of the work ("parse",
      "execute"); each stage is the delta over its own extent, so a
      stage includes the stages nested in it. Repeated stages with the
      same name merge. Outside {!profile} a stage costs one domain-local
      lookup and takes no readings. *)

(** What one stage (or the whole profiled extent) consumed. *)
type counters = {
  pages_read : int;  (** pager backend page reads (cache misses hitting disk) *)
  pages_written : int;  (** pager backend page writes *)
  pager_hits : int;  (** page requests served from the frame pool *)
  pager_misses : int;  (** page requests that had to fault *)
  cache_hits : int;  (** node-view cache hits (core layer) *)
  cache_misses : int;  (** node-view cache misses *)
  node_views : int;  (** node-view resolutions requested *)
  rows_decoded : int;  (** table rows decoded from heap payloads *)
  bytes_decoded : int;  (** bytes decoded: row payloads + B+tree node pages *)
  bytes_read : int;  (** bytes read from the I/O backend *)
  bytes_written : int;  (** bytes written to the I/O backend *)
  btree_finds : int;  (** point lookups in B+trees *)
  cursor_steps : int;  (** B+tree cursor advances *)
  fsyncs : int;  (** fsync calls (WAL + pager) *)
}

type stage = {
  stage_name : string;
  calls : int;  (** how many same-named {!stage} scopes merged into this row *)
  elapsed_ms : float;
  minor_words : float;  (** [Gc.minor_words] delta (exact in native code) *)
  major_words : float;  (** the domain's [Gc.counters] major words delta *)
  cost : counters;
}

type report = {
  total : stage;  (** whole profiled extent; [stage_name = "total"] *)
  stages : stage list;  (** completion order, same-named stages merged *)
}

val profile : (unit -> 'a) -> 'a * report
(** [profile f] runs [f] and returns its result with the cost report.
    Nested calls are inclusive: the outer report counts the inner
    extent too (no caller nests them), while stages go to the innermost
    profile. *)

val stage : string -> (unit -> 'a) -> 'a
(** [stage name f] opens a named accounting scope for the extent of
    [f]. Passthrough when no profile is being taken on this domain. *)

val measure : (unit -> 'a) -> 'a * float * int
(** [measure f] runs [f] and returns [(result, elapsed_ms, pages)],
    [pages] being the calling domain's pager hits + misses over [f] —
    the arguments [Repo.record_query] wants. No report is built. *)

(** {1 Reports} *)

val pages_touched : report -> int
(** [pager_hits + pager_misses] of the total — the pages {!measure}
    reports over the same extent. *)

val counters_to_json : counters -> (string * Json.t) list
(** Flat field list, only non-zero counters, stable order. *)

val cost_summary : report -> Json.t
(** Compact object of the total's non-zero counters — what the Query
    Repository stores in its [cost] column. *)

val stage_to_json : stage -> Json.t
val report_to_json : report -> Json.t
(** [{"total": {...}, "stages": [{...}, ...]}]. *)

val report_to_text : report -> string
(** Table: one row per cost dimension, one column per stage plus
    total. Zero-everywhere dimensions are omitted. *)
