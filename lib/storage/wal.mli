(** Write-ahead log of committed page batches.

    Writers commit dirty pages in two phases: every image goes to the
    end of the log as one batch, sealed by a commit record and fsynced
    (the commit point); then the images are written back to the main
    file(s). A log holds the batches committed since the last
    checkpoint, in commit order; a checkpoint makes the main files
    durable and {!clear}s it. A crash before a batch's commit record
    leaves the batches before it (the torn tail is discarded); a crash
    after it is repaired on the next open by replaying every committed
    batch in order. Either way a commit is all-or-nothing — the
    property the paper gets from its host RDBMS.

    Records carry a file tag so one WAL can cover several page files:
    {!Database} routes every file's dirty pages through a single
    [crimson.wal] per directory, making each commit atomic {e across}
    heap and index files.

    On-disk layout (version 2), one batch, repeated:
    {v
    magic "CRIMWAL2" (8)
    n (u32)
    n x [ file_len (u32) | file | page_id (u32) | image (Page.size)
          | record_checksum (u32) ]
    commit_checksum (u32)
    v}
    Every record is individually checksummed, so replay can tell a torn
    or bit-flipped tail record from a valid one; the trailing commit
    checksum (the masked sum of the record checksums) doubles as the
    commit record — a torn write cannot produce both the right length
    and the right value. A log of one batch is exactly the log an
    earlier version, which replaced the log on every commit, wrote. *)

type t

type entry = {
  file : string;  (** Path relative to the WAL's directory. *)
  page_id : int;
  image : bytes;  (** Exactly {!Page.size} bytes. *)
}

type torn = {
  intact : int;  (** Records that decoded and checksummed cleanly. *)
  detail : string;  (** Why decoding stopped. *)
}

type read_result =
  | Empty
  | Committed of entry list list
      (** Every committed batch, in log order. A torn batch after them
          ends the log: it never committed, and is dropped. *)
  | Torn of torn
      (** The first batch has no valid commit record: normal after a
          crash mid-append to an empty log — the batch must be
          discarded. *)

val open_path : ?io:Io.t -> string -> t
(** Open/create a WAL at exactly this path (the database-level WAL).
    Appends go after the file's current end, so open a log that is
    empty or that ends with a committed batch. *)

val path : t -> string

val size : t -> int
(** Bytes of the batches appended or found at open, up to the end of
    the last one; 0 after {!clear}. *)

val append_entries : t -> entry list -> unit
(** Append one batch of these records and its commit record after the
    last committed batch, then fsync. Images must be {!Page.size}
    bytes. *)

val read : t -> read_result
(** Classify and decode the WAL. Never raises on torn or corrupt
    content. *)

val clear : t -> unit
(** Truncate to empty and fsync — called once the main files hold every
    committed batch durably. *)

val close : t -> unit

(**/**)

val checksum : string -> int -> bytes -> int
(** [checksum file page_id image], a record's checksum: from
    [(page_id * 2654435761) mod 2^30], every byte of [file] and then of
    [image] folds in as [acc <- (31 * acc + byte) mod 2^30]. *)
