(** Trace pipeline: span trees per request, slow-query log, JSONL sink.

    [Trace.timed ~name ~meta f] runs [f] under a root span called
    [name]. While the tree has a reader, a slowlog threshold
    ({!set_slowlog_ms}) or a sink ({!set_sink}), it opens a {e trace}: it
    assigns a fresh trace id and has {!Span} collect, so every
    [Span.with_]/[timed]/[record] scope entered while [f] runs becomes a
    node in the span tree, carrying its structured attributes
    ([Span.attr]). When the root span exits — on return or while
    unwinding an exception — the finished {!record} is:

    - pushed into the slow-query ring when the root's elapsed time
      reaches the threshold ({!slowlog});
    - appended as one JSON line to the sink file, if one is installed.

    With neither reader, [timed] is a plain [Span.timed]: its histogram
    still gets its sample, and no tree, id or attribute is built. A
    nested [Trace.timed] joins the enclosing trace as an ordinary span;
    only the outermost call owns the record.

    The collecting trace is domain-local: each worker domain assembles
    its own. Each domain's slowlog ring sits behind its own mutex on one
    process-wide list, so {!slowlog} on any domain reads every domain's
    entries. Trace ids come from one process-wide atomic, and the JSONL
    sink is shared by every domain behind a mutex. Forked children must
    call {!child_reset} before any traced work. *)

type span = Span.span = {
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
(** Run [f] as a request rooted at a span called [name]; returns the
    result and the root's elapsed milliseconds. Collects a trace only
    when the slowlog or the sink will read it; joins the enclosing trace
    (meta ignored) when one is already collecting. *)

val with_ : name:string -> ?meta:(string * Json.t) list -> (unit -> 'a) -> 'a

val collecting : unit -> bool
(** [Span.collecting]. *)

val current_id : unit -> int option
(** The collecting trace's id ([Span.trace_id]). *)

(** {1 Slow-query log} *)

val slowlog : ?n:int -> unit -> record list
(** Every domain's slow-query log entries, merged newest first
    ({!merge_records}); [n] caps the result. Each domain's ring is read
    under its own mutex, which its owner holds only to push one record,
    so a domain busy inside a request never delays the read. A domain's
    entries stay listed after it exits. Each record's provenance rides
    in its meta (the server tags request traces with their worker). *)

val merge_records : ?n:int -> record list list -> record list
(** Interleave rings into one timeline, newest first: [started_at]
    descending, trace id descending as tie-break, so the order is total.
    [n] caps the result. *)

val slowlog_reset : unit -> unit
(** Empty every domain's slowlog ring. *)

val set_slowlog_capacity : int -> unit
(** Resize this domain's slowlog ring (drops current contents); domains
    that record their first slow trace later start at this size.
    Default 64. *)

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

val record_to_json : record -> Json.t

val record_of_json : Json.t -> (record, string) result
(** Inverse of {!record_to_json} (used by [crimson slowlog] to pretty
    print server replies). *)

(** {1 Reset} *)

val reset : unit -> unit
(** Abandon the trace collecting on this domain, if any ([Span.reset]). *)

val child_reset : unit -> unit
(** For forked children: {!reset}, drop the inherited sink fd (the
    parent's sink is unaffected), and clear every slowlog ring so the
    child never writes or reports the parent's traces. *)
