(** Write-ahead log for atomic checkpoints.

    A WAL holds at most one batch of page images. Writers flush dirty
    pages in two phases: first every image goes to the WAL, sealed by a
    commit record; then the images are applied to the main file(s) and
    the WAL is cleared. A crash before the commit record leaves the
    previous consistent state (the torn WAL is discarded); a crash
    after it is repaired on the next open by replaying the batch.
    Either way a checkpoint is all-or-nothing — the property the paper
    gets from its host RDBMS.

    Records carry a file tag so one WAL can cover several page files:
    {!Database} routes every file's dirty pages through a single
    [crimson.wal] per directory, making the checkpoint atomic {e
    across} heap and index files.

    On-disk layout (version 2):
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
    and the right value. *)

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
  | Committed of entry list
  | Torn of torn
      (** No valid commit record: normal after a crash mid-append — the
          batch must be discarded. *)

val open_path : ?io:Io.t -> string -> t
(** Open/create a WAL at exactly this path (the database-level WAL). *)

val path : t -> string

val append_entries : t -> entry list -> unit
(** Replace the WAL's contents with these records and a commit record,
    then fsync. Images must be {!Page.size} bytes. *)

val read : t -> read_result
(** Classify and decode the WAL. Never raises on torn or corrupt
    content. *)

val clear : t -> unit
(** Truncate to empty and fsync — called once the batch has been
    applied. *)

val close : t -> unit
