(** Timed scopes, and the span trees of a collecting trace.

    [Span.with_ ~name f] runs [f ()], records its elapsed wall time in
    milliseconds into [Metrics.histogram name] (also when [f] raises),
    and emits one debug line on the [crimson.obs] log source
    ([span core.lca 0.041ms]). Outside a collecting trace that is all a
    scope does: one clock read on each side and one histogram sample.

    While a trace collects ({!collect}, which [Trace.timed] calls when a
    slowlog threshold or a sink will read the tree), its open spans are
    frames on a domain-local stack: every scope pushes one, {!attr}
    attaches a key/value pair to the innermost, and a scope that closes
    becomes a finished {!span} among its parent's children. A scope
    opened once the trace holds its event cap is dropped with its whole
    subtree; the attributes set inside it go with it.

    The collecting trace is domain-local: each domain assembles its own.
    A forked child inherits the parent's; it must call
    [Trace.child_reset ()] (which calls {!reset}) before any traced
    work, or its spans would graft onto the parent's tree. *)

type span = {
  name : string;
  depth : int;  (** 0 for the root *)
  start_ms : float;  (** offset from the root's start *)
  elapsed_ms : float;
  attrs : (string * Json.t) list;  (** in call order *)
  children : span list;  (** in call order *)
}

val with_ : name:string -> (unit -> 'a) -> 'a

val timed : name:string -> (unit -> 'a) -> 'a * float
(** Like {!with_} but also returns the elapsed milliseconds. *)

val record :
  Metrics.Histogram.t -> ?attrs:(unit -> (string * Json.t) list) -> (unit -> 'a) -> 'a
(** Like {!with_} on a pre-created histogram, for hot call sites that
    cannot afford the per-call name lookup. Inside a collecting trace the
    span takes the histogram's name and starts with the attributes
    [attrs] returns; [attrs] runs only then, so labels may be computed
    lazily. *)

val attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span of the collecting
    trace. A no-op outside one, and inside a span the event cap
    dropped. Later values with the same key are kept alongside earlier
    ones. *)

val collecting : unit -> bool
(** Whether a trace is collecting on this domain. Guard expensive
    attribute computation with this. *)

val collect :
  id:int ->
  max_events:int ->
  name:string ->
  finish:(span -> dropped:int -> unit) ->
  (unit -> 'a) ->
  'a * float
(** [collect ~id ~max_events ~name ~finish f] runs [f] as {!timed} does,
    as the root of a trace that keeps at most [max_events] spans, and
    hands [finish] the root's finished tree and the number of spans the
    cap dropped (each with its subtree) before it returns, or re-raises
    what [f] raised. Owned by [Trace]. *)

val trace_id : unit -> int option
(** The [id] of the trace collecting on this domain. *)

val reset : unit -> unit
(** Abandon the collecting trace. For forked children (via
    [Trace.child_reset]) and test harnesses. *)

val src : Logs.src
(** The [crimson.obs] log source: set its level to [Debug] to stream
    one line per closed scope. *)
