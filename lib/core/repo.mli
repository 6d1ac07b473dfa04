(** The Repository Manager: one handle bundling the Tree Repository,
    Species Repository and Query Repository over a single database
    directory (paper §2.1, Figure 3). *)

module Database = Crimson_storage.Database
module Table = Crimson_storage.Table

type t

exception Open_error of string
(** Raised by {!open_dir} for every way opening can fail — missing or
    non-directory path, a directory that is not a repository (with
    [~create:false]), permissions, a corrupt catalog, a schema mismatch.
    The message names the directory and the cause; no raw [Sys_error] or
    [Unix_error] escapes, so servers and the CLI can report startup
    failures cleanly.

    A repository records the {!format_version} of its tables in its
    catalog when it is created. One of any other version — an older
    one, or one written before versions were recorded (version 0) — is
    refused in either mode, with a message that names both versions and
    the remedy: re-load its trees with this version. It is not migrated
    in place. *)

val format_version : int
(** The layout this version reads and writes: 3, where each tree's
    species sequences are a sorted run of the clustered [species] table
    (see {!Schema.Species}). Version 2 found them through a
    [species.by_chunk] B+tree, and version 1 also found node names
    through a [nodes.by_name] B+tree instead of a name run (see
    {!Name_run}). *)

val open_dir :
  ?pool_size:int ->
  ?durable:bool ->
  ?io:Crimson_storage.Io.t ->
  ?create:bool ->
  ?mode:Database.mode ->
  string ->
  t
(** Open or create the repositories under a directory. [pool_size] is the
    per-file buffer pool size in pages; [durable] enables write-ahead
    logging for crash-atomic checkpoints; [io] selects the storage
    backend (default {!Crimson_storage.Io.real} — fault-injecting
    backends drive the crash-safety harness). [create] (default [true])
    creates the directory when absent; with [~create:false] the
    directory must already exist and hold a repository catalog, else
    {!Open_error} is raised.

    [mode] (default [Read_write]) selects the open mode. With
    [~mode:Read_only] the directory must already exist (as with
    [~create:false]), WAL replay is skipped — a committed WAL left by a
    crash makes the open fail with {!Open_error} until one read-write
    open replays it — and every mutating operation (recording queries,
    creating tables) fails with the typed
    [Crimson_storage.Error.Read_only]. Server worker domains each hold
    a read-only handle over the same immutable files while the
    coordinator keeps the only read-write one. *)

val open_mem : ?pool_size:int -> unit -> t
(** Volatile repositories (tests, benchmarks). *)

val dir : t -> string option
(** The backing directory ([None] for in-memory repositories). The
    coordinator uses it to point worker domains at the same files. *)

val mode : t -> Database.mode
(** The mode this repository was opened with. *)

val trees : t -> Table.t
val nodes : t -> Table.t

val names : t -> Table.t
(** Each tree's name run (see {!Schema.Names} and {!Name_run}). *)

val node_runs : t -> Table.t
(** The run directory of the clustered tables: [nodes], [names],
    [layers], [subtrees], [summaries] and [species] (see {!clustered}). *)

val clustered : t -> (t -> Table.t) -> Crimson_storage.Clustered.t
(** [clustered repo table] is one of the clustered tables, with the
    repository's run directory: [clustered repo layers]. *)

val layers : t -> Table.t
val subtrees : t -> Table.t
val species : t -> Table.t
(** Each tree's species sequences, one sorted run (see {!Schema.Species}
    and [Loader.species_sequence]). *)

val species_run : t -> tree:int -> Crimson_storage.Clustered.group
(** Tree [tree]'s species group, its directory read on the first call
    (one prefix scan of [node_runs.by_first]) and kept by this handle,
    so that a lookup's cost does not grow with the sequences the tree
    holds. *)

val forget_species_run : t -> tree:int -> unit
(** Drop the kept group of tree [tree]. [Loader] calls it before it
    writes or deletes that group: the next {!species_run} reads the
    directory again. *)

val summaries : t -> Table.t
(** Precomputed per-clade rollups (see {!Schema.Summaries} and
    {!Summary}): one row per bounded-depth subtree of every layer,
    written in the tree's load batch and scanned, one (tree, layer) at a
    time, by overview queries instead of the nodes table. *)

val queries : t -> Table.t

val collections : t -> Table.t
(** The tree-collection catalog (see {!Schema.Collections} and the
    [Crimson_collection] library, which owns all access logic). *)

val bips : t -> Table.t
(** The shared bipartition dictionary: reference-counted canonical clade
    bitmaps, keyed by dense id and by bitmap. *)

val members : t -> Table.t
(** Per-member encodings: dictionary-id lists, full or delta-encoded
    against a base member. *)

val flush : t -> unit
val close : t -> unit

val abandon : t -> unit
(** Release the repository without flushing: file descriptors close,
    dirty pages are dropped. The crash harness uses this after a
    simulated power loss, when the frozen backend would refuse the
    writes {!close} issues; a later {!open_dir} recovers from the WAL. *)

(** {1 Query Repository}

    Since the telemetry pass, every history row also carries the query's
    measured cost: elapsed wall milliseconds and pages touched (buffer
    pool hits + misses charged to the domain that ran it). *)

val record_query :
  ?elapsed_ms:float ->
  ?pages:int ->
  ?cost:string ->
  t ->
  text:string ->
  result:string ->
  int
(** Append to the history; returns the query id. Timestamps come from the
    system clock; both costs default to 0 (unmeasured).
    {!Crimson_obs.Profile.measure} measures the first two; [cost] is a
    compact JSON cost breakdown from {!Crimson_obs.Profile} — [""] (the
    default) means the query was not profiled. *)

type query_record = {
  id : int;  (** Dense ascending query id. *)
  time : float;  (** Unix timestamp at record time. *)
  text : string;  (** The query as issued. *)
  result : string;  (** Rendered result summary. *)
  elapsed_ms : float;  (** Measured wall time, 0 when unmeasured. *)
  pages : int;  (** Buffer-pool pages touched, 0 when unmeasured. *)
  cost : string;  (** JSON cost breakdown, [""] when not profiled. *)
}
(** One Query Repository row. Replaces the positional 6-tuple the
    history accessors used to return — callers name the fields they
    want instead of pattern-matching all six in order. *)

val history : t -> query_record list
(** All recorded queries, oldest first. *)

val history_entry : t -> int -> query_record option
