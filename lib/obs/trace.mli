(** Trace pipeline: span trees per request, slow-query log, JSONL sink.

    [Trace.timed ~name ~meta f] opens a {e trace}: it assigns a fresh
    trace id, installs the {!Span} event sink, and runs [f] under a root
    span called [name]. Every [Span.with_]/[timed]/[record_traced] scope
    entered while [f] runs becomes a node in the span tree, carrying its
    structured attributes ([Span.attr]). When the root span exits — on
    return or while unwinding an exception — the finished {!record} is:

    - pushed into a bounded in-memory ring buffer ({!recent});
    - pushed into the slow-query ring when the root's elapsed time
      reaches the {!set_slowlog_ms} threshold ({!slowlog});
    - appended as one JSON line to the optional {!set_sink} file.

    A nested [Trace.timed] joins the enclosing trace as an ordinary
    span; only the outermost call owns the record. When no trace is
    collecting, instrumented code pays one ref read per span.

    Collection state and the rings are domain-local, like the span
    stack: each worker domain assembles and keeps its own traces. Trace
    ids come from one process-wide atomic, and the JSONL sink is shared
    by every domain behind a mutex. Forked children must call
    {!child_reset} before any traced work. *)

type span = {
  name : string;
  depth : int;  (** 0 for the root *)
  start_ms : float;  (** offset from the trace's first event *)
  elapsed_ms : float;
  attrs : (string * Json.t) list;
  children : span list;  (** in call order *)
}

type record = {
  id : int;  (** trace id, monotonic within the process *)
  started_at : float;  (** [Unix.gettimeofday] at trace start *)
  meta : (string * Json.t) list;
      (** request-level tags (session id, query text, …); gains a
          [dropped_events] count when the event cap truncated the tree *)
  root : span;
}

val root_elapsed_ms : record -> float

(** {1 Collecting} *)

val timed :
  name:string -> ?meta:(string * Json.t) list -> (unit -> 'a) -> 'a * float
(** Run [f] as a traced request rooted at a span called [name]; returns
    the result and the root's elapsed milliseconds. Joins the enclosing
    trace (meta ignored) when one is already collecting. *)

val with_ : name:string -> ?meta:(string * Json.t) list -> (unit -> 'a) -> 'a

val collecting : unit -> bool
val current_id : unit -> int option

(** {1 Ring buffers} *)

val recent : ?n:int -> unit -> record list
(** Most recent completed traces, newest first (default: whole ring). *)

val slowlog : ?n:int -> unit -> record list
(** Slow-query log entries, newest first. *)

val slowlog_reset : unit -> unit

val generation : unit -> int
(** Bumped whenever this domain's rings gain a record (or are cleared):
    lets the server layer republish ring snapshots to peers only when
    something changed. Domain-local, like the rings. *)

val set_buffer_capacity : int -> unit
(** Resize the trace ring (drops current contents). Default 128. *)

val set_slowlog_capacity : int -> unit
(** Resize the slowlog ring (drops current contents). Default 64. *)

val set_slowlog_ms : float option -> unit
(** Slow threshold in milliseconds. [None] disables the slowlog;
    [Some t] keeps every trace whose root elapsed is [>= t], so
    [Some 0.0] logs everything. Default [None]. *)

val slowlog_threshold : unit -> float option

val set_max_events : int -> unit
(** Per-trace event cap: spans entered beyond it are dropped whole
    (subtrees included) and counted in the record's [dropped_events]
    meta. Default 4096. *)

(** {1 JSONL sink} *)

val set_sink : ?max_bytes:int -> string option -> unit
(** [set_sink (Some path)] appends every completed record as one JSON
    line to [path] ([O_APPEND] — crash-safe, one [write] per record).
    When the file would exceed [max_bytes] (default 64 MiB) it rotates:
    [path] renames to [path.1] (replacing any previous one) and a fresh
    [path] begins. [set_sink None] closes the sink. Open/write failures
    count into [obs.trace.sink.errors] and disable the sink. *)

val sink_path : unit -> string option
val flush : unit -> unit
(** [fsync] the sink file, if one is open. *)

(** {1 JSON codecs} *)

val span_to_json : span -> Json.t
val record_to_json : record -> Json.t

val record_of_json : Json.t -> (record, string) result
(** Inverse of {!record_to_json} (used by [crimson slowlog] to pretty
    print server replies). *)

(** {1 Reset} *)

val reset : unit -> unit
(** Abandon any in-flight trace and clear the span stack. *)

val child_reset : unit -> unit
(** For forked children: {!reset}, drop the inherited sink fd (the
    parent's sink is unaffected), and clear both ring buffers so the
    child never writes or reports the parent's traces. *)
