(** Nested spans: time a scope, feed the latency histogram of the same
    name, optionally trace via [Logs], and — when a trace is collecting —
    emit enter/exit events into the {!Trace} pipeline.

    [Span.with_ ~name f] runs [f ()], records the elapsed wall time in
    milliseconds into [Metrics.histogram name], and emits one debug line
    on the [crimson.obs] log source ([span core.lca 0.041ms depth=1]).
    Spans nest: the depth is tracked in a domain-local stack so trace
    lines show the call structure, and {!current} exposes the innermost
    open span for ad-hoc attribution. The elapsed time is recorded even
    when [f] raises.

    While a trace is collecting (a {!type-sink} is installed — see
    {!Trace}), every span additionally carries structured attributes:
    {!attr} attaches a key/value pair to the innermost open span, and
    the exit event delivers the finished span (name, depth, elapsed,
    attributes) to the sink, which assembles the span tree. When no sink
    is installed the attribute path is a no-op and the per-span overhead
    is one ref read.

    The stack and the sink are domain-local: each domain nests and
    traces its own spans. A forked child inherits the parent's open
    stack and any installed sink; it must call [Trace.child_reset ()]
    (which calls {!reset}) before doing any traced work, or its spans
    would graft onto the parent's tree.

    For hot call sites that cannot afford the per-call name lookup and
    trace branch, pre-create the histogram and use {!record}; use
    {!record_traced} where the site should still show up in traces. *)

val with_ : name:string -> (unit -> 'a) -> 'a

val timed : name:string -> (unit -> 'a) -> 'a * float
(** Like {!with_} but also returns the elapsed milliseconds. *)

val record : Metrics.Histogram.t -> (unit -> 'a) -> 'a
(** Fast path: time [f] into a pre-created histogram. No stack
    maintenance, no trace line, never traced. *)

val record_traced :
  Metrics.Histogram.t ->
  ?attrs:(unit -> (string * Json.t) list) ->
  (unit -> 'a) ->
  'a
(** Like {!record} when no trace is collecting. While one is, behaves
    like {!with_} under the histogram's name, first attaching the
    attributes returned by [attrs] (only evaluated when tracing — safe
    to compute labels lazily). *)

val attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span. No-op when no span
    is open or no trace is collecting. Later values with the same key
    are kept alongside earlier ones (delivered in call order). *)

val current : unit -> string option
(** Name of the innermost open span, if any. *)

val depth : unit -> int
(** Number of open spans. *)

val reset : unit -> unit
(** Drop every open frame. For forked children (via
    [Trace.child_reset]) and test harnesses; using it mid-span in
    normal code would corrupt enclosing [with_] bookkeeping. *)

(** {1 Event sink (installed by [Trace])} *)

type sink = {
  on_enter : name:string -> depth:int -> t0_ms:float -> unit;
  on_exit :
    name:string ->
    depth:int ->
    elapsed_ms:float ->
    attrs:(string * Json.t) list ->
    unit;
}

val set_sink : sink option -> unit
(** Install (or remove) the event sink. Owned by [Trace]; only one sink
    exists at a time. *)

val tracing : unit -> bool
(** Whether a sink is installed, i.e. a trace is actively collecting.
    Guard expensive attribute computation with this. *)

val src : Logs.src
(** The [crimson.obs] log source — set its level to [Debug] to stream
    span trace lines. *)
