(** Slotted-page record layout.

    A page holds variable-length records addressed by stable slot numbers:
    a directory of (offset, length) entries grows from the header while
    record bytes grow from the page end. Deleting leaves a tombstone so
    other slots keep their numbers (record ids embed slot numbers). Freed
    record space is reclaimed only when the page is compacted by a rewrite
    of its owner — adequate for Crimson's append-mostly workload. *)

val init : bytes -> unit
(** Format a fresh page. *)

val count : bytes -> int
(** Number of slots ever allocated (including tombstones). *)

val live_count : bytes -> int
(** Slots currently holding a record. *)

val max_record : int
(** Largest record a single page can hold. *)

val insert : bytes -> string -> int option
(** Store a record, returning its slot, or [None] when it does not fit.
    Raises [Invalid_argument] when the record exceeds {!max_record}. *)

val read : bytes -> int -> string option
(** [None] for tombstoned slots. Raises [Invalid_argument] on slots never
    allocated. *)

val with_record : bytes -> int -> (bytes -> int -> int -> 'a) -> 'a option
(** [with_record page slot f] is [f page off len] over the record's bytes
    in place, with no copy; [None] for a tombstone. Raises
    [Invalid_argument] on slots never allocated. *)

val delete : bytes -> int -> unit
(** Tombstone a slot; idempotent. Raises [Invalid_argument] on slots
    never allocated. *)
