(** Storage I/O backends.

    Everything the storage stack does to the filesystem — page reads and
    writes, WAL appends, fsyncs, catalog renames — goes through an
    {!t}. The {!real} backend is plain Unix. The fault-injecting
    backends exist so tests can prove the pager/WAL stack survives a
    crash at {e every} I/O point, not just the happy path:

    - {!faulty} arms one fault at the [at]-th mutating operation
      (writes, fsyncs, truncates, renames, removes — counted across all
      files opened through the backend). [Fail_op] makes that operation
      raise a typed {!Error.Io_failed} and subsequent operations
      succeed (a transient disk error). [Torn_write] writes only a
      prefix of the requested bytes and then freezes. [Crash_op]
      freezes before the operation does anything. [Power_cut] does the
      same, and first gives every file written or truncated since its
      last fsync back what it held before: the writes an fsync had not
      made durable are lost.
    - {!short_writes} makes every [every]-th write a legitimate short
      write (a prefix is written and its length returned) — retry
      loops must cope.

    Freezing simulates power loss: the file images stay exactly as they
    were at the fault point (as the last fsyncs left them, after
    [Power_cut]), and every later operation (including
    reads) raises {!Crash} — only {!close} still works, so test
    drivers can release descriptors. Recovery is then exercised by
    reopening the same paths through {!real}. *)

exception Crash
(** The simulated machine is off. *)

type fault = Fail_op | Torn_write | Crash_op | Power_cut

type t
(** A backend. Cheap to create; fault state is per-backend. *)

type file
(** An open file handle bound to its backend. *)

val real : t

val faulty : fault -> at:int -> t
(** Fault fires at the [at]-th (1-based) mutating operation; [at <= 0]
    never fires. *)

val counting : unit -> t
(** Faithful backend that only counts mutating operations — run a
    workload once through this to learn the size of the fault matrix. *)

val short_writes : every:int -> t

val op_count : t -> int
(** Mutating operations performed so far (0 for {!real}). *)

val frozen : t -> bool

(** {1 File operations} *)

val open_file : t -> string -> file
(** Open read/write, creating when absent ([0o644]). *)

val path : file -> string
val size : file -> int

val pread : file -> off:int -> bytes -> pos:int -> len:int -> int
(** Read at an absolute offset; returns the count read (0 at EOF). *)

val pwrite : file -> off:int -> bytes -> pos:int -> len:int -> int
(** Write at an absolute offset; may write fewer than [len] bytes. *)

val fsync : file -> unit
val truncate : file -> int -> unit

val close : file -> unit
(** Always permitted, even frozen — releases the descriptor only. *)

(** {1 Whole-file helpers} (catalog, commit markers) *)

val file_exists : t -> string -> bool
val read_file : t -> string -> string option
val write_file_atomic : t -> string -> string -> unit
(** Write to [<path>.tmp], fsync, rename over [path]. The rename is the
    atomicity point and counts as one mutating operation. *)

val remove : t -> string -> unit
(** Delete if present. *)
