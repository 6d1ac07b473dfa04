(** Heap files: unordered record storage with stable record ids.

    A heap file is a sequence of slotted pages behind a {!Pager}. Records
    get a {!rid} — (page, slot) packed into an int — that never changes,
    so indexes can point at them. Inserts go to the newest page, opening a
    fresh page when full. *)

type t

type rid = int
(** [page lsl 16 lor slot]. *)

val rid_make : page:int -> slot:int -> rid
val rid_page : rid -> int
val rid_slot : rid -> int
val rid_to_string : rid -> string

val create : Pager.t -> t
(** Wrap a pager as a heap file, formatting it when empty. Raises
    {!Error.Error} ([Corrupt_page]) when the file exists but is not a heap file. *)

val insert : t -> string -> rid
(** Raises [Invalid_argument] for records larger than
    {!Slotted.max_record}; Crimson chunks long species sequences above
    this layer. *)

val get : t -> rid -> string option
(** [None] for deleted records. Raises [Invalid_argument] for rids that
    never existed. *)

val with_record : t -> rid -> (bytes -> int -> int -> 'a) -> 'a option
(** [with_record t rid f] pins the record's page and calls
    [f page off len] on the record's bytes in place: no copy. [f] must
    not keep [page], which the pool may reuse once it returns. [None]
    for deleted records; raises [Invalid_argument] for rids that never
    existed, as {!get} does. *)

val with_records : t -> rid -> count:int -> (int -> bytes -> int -> int -> int) -> int
(** [with_records t rid ~count f] pins [rid]'s page once and walks the
    [count] slots from [rid]'s in slot order. [f i page off len] runs on
    slot [i], counting from 0, and returns the next slot it wants: the
    slots in between are passed over unread. The walk ends at the first
    index [>= count], which it returns, or at a deleted slot, whose index
    it returns. [f] must not keep [page]. Raises [Invalid_argument] for a
    rid that never existed or a slot past the page's directory. *)

val with_slots : t -> rid -> ((int -> (bytes -> int -> int -> 'a) -> 'a option) -> 'b) -> 'b
(** [with_slots t rid f] pins [rid]'s page once and hands [f] a reader
    of its slots in any order: [read i g] is [g page off len] on slot
    [i], counting from [rid]'s, or [None] for a deleted slot. Neither
    [read] nor [page] may be kept past [f]. Raises [Invalid_argument]
    as {!with_records} does. *)

val delete : t -> rid -> unit

val iter : t -> (rid -> string -> unit) -> unit
(** Live records in file order. *)

val fold : t -> init:'a -> f:('a -> rid -> string -> 'a) -> 'a
val record_count : t -> int
(** Live records, counted by scan. *)

val reset : t -> unit
(** Reformat every data page as empty. Record ids become invalid; used by
    {!Table.vacuum}. The file keeps its size (pages are reused, not
    released — an accepted trade-off, as with VACUUM in most engines). *)

val pager : t -> Pager.t
val flush : t -> unit
