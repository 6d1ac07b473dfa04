(** Page manager with an LRU buffer pool.

    Every on-disk structure (heap files, B+trees) reads and writes fixed
    {!Page.size} pages through a pager. The pager caches up to [pool_size]
    frames; clean and dirty frames are evicted least-recently-used, dirty
    frames being written back first. Pages accessed inside {!with_page}
    are pinned and never evicted mid-callback.

    A frame allocates its {!Page.size} buffer the first time it holds a
    page, so a pool costs memory in proportion to the distinct pages it
    has held, at most [pool_size] buffers; opening a file allocates
    none. Frames are taken in a fixed order and evicted only once all of
    them hold pages, so when buffers are allocated never changes which
    pages hit, miss or are evicted. {!close} and {!abandon} give every
    buffer back. The process-wide gauge [storage.pager.frame_bytes] sums
    the buffers held by open pagers.

    This is the component that realises the paper's storage argument:
    simulation trees are far larger than memory, queries touch few pages,
    so index-directed random access through a small pool must perform —
    experiment E9 measures exactly this by shrinking [pool_size].

    All file traffic goes through an {!Io} backend, so tests can inject
    faults (failed/short/torn writes, simulated power loss) under the
    whole stack. *)

type t

val create_file : ?pool_size:int -> ?io:Io.t -> ?read_only:bool -> string -> t
(** Open or create a page file. [pool_size] (default 256 frames, minimum
    8) bounds resident pages. Crash atomicity is the {!Database}'s: its
    one WAL commits every file's dirty pages together (see {e Group
    commits} below), and it replays a committed batch before any
    pager opens. Raises {!Error.Error} ([Io_failed] on backend failure,
    [Corrupt_page] when the file length is not page-aligned).

    With [read_only] (default false) the file must already exist, and
    every mutating operation ({!allocate}, {!with_page_mut}) raises
    [Error.Read_only]. Multiple read-only pools may share the same
    immutable files across domains. *)

val create_mem : ?pool_size:int -> unit -> t
(** Volatile pager backed by memory — same code paths and pool behaviour
    as the file pager, without a file. Used by tests and benchmarks. *)

val page_count : t -> int

val file_path : t -> string option
(** The backing file's path ([None] for memory pagers). *)

val read_only : t -> bool
(** Whether this pool was opened with [~read_only:true]. *)

val allocate : t -> int
(** Append a zeroed page; returns its id. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Run the callback on the page's buffer for reading. The page is pinned
    for the duration. The callback must not retain the buffer. Raises
    [Invalid_argument] on an out-of-range id. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} but marks the page dirty. *)

val flush : t -> unit
(** Write back all dirty frames and mark them clean, without an fsync.
    Frames stay dirty if any write fails. *)

val close : t -> unit
(** Flush and release the backing file. Using a closed pager raises
    [Invalid_argument]. *)

val abandon : t -> unit
(** Release the backing file {e without} flushing — dirty frames are
    dropped. For error paths where the caller must not touch storage
    again (a fault-frozen backend, a failed open). *)

(** {1 Group commits}

    A {!Database} makes one commit cover every file of the directory:
    it collects {!dirty_batch} from each pager, appends the union to a
    single database-level WAL, then calls {!flush} on each pager; a
    checkpoint later calls {!sync} on the pagers written since the last
    one. Pagers enrolled in a group must never write dirty pages outside
    it, so {!set_dirty_pressure} installs a commit-now callback used
    when eviction finds only dirty frames. *)

val dirty_batch : t -> (int * bytes) list
(** Snapshot of (page id, buffer) for every dirty resident frame. The
    buffers are live frame storage: commit them before the next pager
    operation. *)

val sync : t -> unit
(** Fsync the backing file (no-op for memory pagers): the checkpoint
    step that makes pages written back since the last one durable
    without the log. *)

val set_dirty_pressure : t -> (unit -> unit) -> unit
(** Callback invoked when eviction would have to write back a dirty
    frame; it must make frames clean (by committing the group). *)

(** Page traffic — reads, writes, hits, misses, evictions, fsyncs — is
    charged to the calling domain's {!Crimson_obs.Cost} record, which
    backs the [storage.pager.*] registry counters and every profile;
    fsync durations feed the [storage.pager.fsync_ms] histogram.
    {!replay_batch} feeds [storage.recovery.replays]/[.pages]. A pool
    itself only reports its state. *)
type stats = {
  pool_size : int;
  resident : int;  (** Frames currently cached. *)
  allocated : int;
      (** Frames that have their page buffer: min(distinct pages held so
          far, [pool_size]); 0 once closed. *)
}

val stats : t -> stats

(**/**)

val replay_batch : Io.file -> (int * bytes) list -> unit
(** Write a committed batch of page images into a file and fsync — the
    replay primitive shared with {!Database}'s directory-level
    recovery. *)
