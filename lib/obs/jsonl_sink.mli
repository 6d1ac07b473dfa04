(** Shared crash-safe JSONL append sink with size-capped rotation.

    One instance backs the trace sink, another the event journal. All
    writes are whole lines appended under a mutex through a single
    [O_APPEND] fd, so concurrent domains never tear lines. Forked
    children must re-arm their owner module's [child_reset] so two
    processes never share one rotation. *)

type counters = {
  c_writes : Metrics.Counter.t;
  c_rotations : Metrics.Counter.t;
  c_errors : Metrics.Counter.t;
}

type t

val make : counters -> t
(** A sink with no destination; writes are dropped until {!set}. *)

val set : ?max_bytes:int -> t -> string option -> unit
(** Install (or with [None] remove) the destination file. The file is
    opened in append mode; when it would exceed [max_bytes] it rotates
    to [path.1] first. *)

val path : t -> string option
val installed : t -> bool

val write : t -> string -> unit
(** Append one line (caller includes the trailing newline). Errors
    bump [c_errors] and close the sink rather than raise. *)

val flush : t -> unit
(** [fsync] the sink fd, if installed. *)

val close : t -> unit
