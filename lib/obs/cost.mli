(** The cost record: the one place where storage and node-cache events
    are counted.

    Every domain owns one record of plain mutable ints. A charge point
    reads the calling domain's record (one [Domain.DLS] lookup) and
    bumps one field, whether or not anybody is profiling. A domain's
    record joins a process-wide list on first use and stays listed after
    the domain exits, so its counts outlive it.

    Everything that reports these events reads the records:
    - the registry names in {!registry} ([storage.pager.hit], …) read
      the sum over every domain's record ({!Metrics.counter_value},
      exporters, STATS, [/metrics]);
    - {!Profile} reports and a request's pages are deltas of the
      calling domain's record over the measured extent. *)

type t = private {
  mutable page_reads : int;  (** pager backend page reads *)
  mutable page_writes : int;  (** pager backend page writes *)
  mutable pager_hits : int;  (** page requests served from a frame pool *)
  mutable pager_misses : int;  (** page requests that had to fault *)
  mutable pager_evictions : int;  (** frames evicted to make room *)
  mutable pager_fsyncs : int;
  mutable wal_fsyncs : int;
  mutable btree_finds : int;  (** B+tree point lookups *)
  mutable node_decodes : int;  (** B+tree node pages decoded *)
  mutable cache_hits : int;  (** node-view cache hits *)
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable node_views : int;  (** node-view resolutions requested *)
  mutable rows_decoded : int;  (** table rows decoded from heap payloads *)
  mutable bytes_decoded : int;  (** row payloads + B+tree node pages *)
  mutable bytes_read : int;  (** bytes read from the I/O backend *)
  mutable bytes_written : int;  (** bytes written to the I/O backend *)
}

val current : unit -> t
(** The calling domain's live record. Its fields keep moving; read them
    on this domain for exact values. *)

val snapshot : unit -> t
(** A copy of the calling domain's record. *)

val pages : t -> int
(** [pager_hits + pager_misses]: the page accesses a request is charged. *)

val registry : (string * (t -> int)) list
(** The registry name of each event that has one, with the field it
    reads. {!Metrics} registers these names as counters whose value is
    {!total} of the field. *)

val total : (t -> int) -> int
(** The sum of a field over every domain's record. Values charged by
    other running domains may lag by a few events. *)

(** {1 Charge points} *)

val page_read : unit -> unit
val page_write : unit -> unit
val pager_hit : unit -> unit
val pager_miss : unit -> unit

val pager_unmiss : unit -> unit
(** Retract one pager miss: allocating a fresh page goes through the
    miss path, but hit rates count reads only. *)

val pager_eviction : unit -> unit
val pager_fsync : unit -> unit
val wal_fsync : unit -> unit
val btree_find : unit -> unit

val node_decoded : bytes:int -> unit
(** One B+tree node page decoded. *)

val cache_hit : unit -> unit
val cache_miss : unit -> unit
val cache_eviction : unit -> unit
val node_view : unit -> unit
val row_decoded : bytes:int -> unit
val add_bytes_read : int -> unit
val add_bytes_written : int -> unit
