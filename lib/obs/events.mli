(** Structured JSONL event journal.

    Operational events — worker stalls and recoveries, server
    lifecycle — as one JSON object per line:
    [{"ts": <unix seconds>, "event": "<kind>", ...fields}]. The journal
    shares the trace sink's crash-safe append + size-capped rotation
    machinery ({!Jsonl_sink}) and is process-global: every domain in a
    worker fleet emits into one timeline. *)

val set_journal : ?max_bytes:int -> string option -> unit
(** Install (or with [None] remove) the journal file. Rotates to
    [path.1] when it would exceed [max_bytes] (default 64 MiB). *)

val installed : unit -> bool

val emit : ?fields:(string * Json.t) list -> string -> unit
(** [emit ~fields kind] appends one event line, stamped with the
    current time. Without a journal installed the event is dropped (and
    counted in [obs.events.dropped]). *)

val flush : unit -> unit
(** [fsync] the journal, if installed. *)

val close : unit -> unit

val child_reset : unit -> unit
(** For forked children: drop the inherited journal fd (the parent's
    journal is unaffected) so two processes never share one rotation. *)
