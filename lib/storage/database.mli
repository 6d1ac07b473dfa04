(** A database: a directory of table heaps and index files plus a catalog.

    Crimson opens one database per repository set (see crimson_core). The
    catalog persists table schemas and index names; key-extraction
    functions are code, so callers re-supply the same {!Table.index_spec}
    list when opening — the catalog verifies names and uniqueness flags
    and indexes whose files are missing are rebuilt from the heap.

    With [durable], the whole directory shares a single write-ahead log
    ([crimson.wal]): a checkpoint ({!flush}/{!close}) collects the dirty
    pages of {e every} open file into one committed batch, so a crash
    can never persist the heap's half of an insert without its index
    entries. Recovery runs inside {!open_dir}, before any table opens. *)

type t

exception Schema_mismatch of string

type mode =
  | Read_write
  | Read_only
      (** Skip WAL replay (a committed WAL raises [Error.Read_only] —
          open read-write once to recover first), never create or
          mutate files, and refuse every mutating operation
          ([table] creation, [drop_table], page writes) with the typed
          [Error.Read_only]. Any number of read-only handles — one per
          worker domain — may share a directory with one read-write
          owner, provided the owner only appends to tables the readers
          never touch. *)

val open_dir :
  ?pool_size:int ->
  ?durable:bool ->
  ?io:Io.t ->
  ?mode:mode ->
  ?check:(version:int -> tables:string list -> unit) ->
  string ->
  t
(** Open or create a database in a directory (created if absent).
    [pool_size] is the per-file buffer-pool size in pages; [durable]
    (default false) makes checkpoints crash-atomic across all files via
    the database-level WAL. [io] (default {!Io.real}) is the backend
    every file of this database is accessed through — tests pass a
    fault-injecting one. Committed WALs left by a crash are replayed
    regardless of the flag; torn ones are discarded
    ([storage.recovery.*] metrics). Raises {!Error.Error} on backend
    failure or corrupt page files. [mode] defaults to [Read_write];
    see {!mode}. [check] sees the catalog's version and table names
    before the log is read; whatever it raises leaves the log as it
    was. *)

val open_mem : ?pool_size:int -> unit -> t
(** Fully in-memory database with identical behaviour (tests,
    benchmarks). *)

val mode : t -> mode
(** The mode this database was opened with ([Read_write] for
    in-memory databases). *)

val dir : t -> string option
(** The backing directory ([None] for in-memory databases). *)

val table :
  t -> name:string -> schema:Record.schema -> indexes:Table.index_spec list -> Table.t
(** Open-or-create. Raises {!Schema_mismatch} when the stored schema or
    index set differs from the request. Idempotent: returns the cached
    handle on repeat calls. *)

val table_names : t -> string list
(** Tables recorded in the catalog. *)

val version : t -> int
(** The format version the catalog records: 0 for a new database, or
    for a catalog written before versions were recorded. The database
    gives it no meaning; the repository layer above it does. *)

val set_version : t -> int -> unit
(** Record a format version in the catalog. Refused with
    [Error.Read_only] on a read-only database. *)

val drop_table : t -> string -> unit
(** Remove a table and its files. Raises [Not_found] for unknown names. *)

val checkpoint : t -> unit
(** Commit every file's dirty pages as one atomic batch through the
    database WAL, then write them back. No-op when nothing is dirty or
    the database is in-memory. {!flush} calls this when [durable]. *)

val flush : t -> unit
val close : t -> unit

val abandon : t -> unit
(** Release every file {e without} flushing — for error paths (a
    fault-frozen backend, a failed open) where storage must not be
    touched again. Dirty state is dropped; a later {!open_dir} recovers
    to the last checkpoint. *)
