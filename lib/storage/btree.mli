(** Disk-resident B+tree index.

    Maps byte-string keys to 63-bit integer values (record ids). Keys are
    unique — callers index non-unique attributes by appending the rid to
    the key, which also gives deterministic iteration order. Leaves are
    chained for range scans; interior nodes hold separator keys. All
    access goes through the pager, so lookups on a cold pool hit the disk
    the way the paper's label/name indexes do.

    Nodes are (de)serialised whole-page; splits occur when a node's
    encoding would overflow a page. Deletion removes keys from leaves
    without rebalancing — fine for Crimson's append-mostly repositories
    (documented trade-off). *)

type t

val create : Pager.t -> t
(** Wrap a pager as a B+tree, formatting it when empty. Raises
    {!Error.Error} ([Corrupt_page]) when the file is not a B+tree. *)

val insert : t -> key:string -> int -> unit
(** Insert or overwrite. Raises [Invalid_argument] when the key is empty
    or longer than {!max_key}. *)

val find : t -> key:string -> int option
(** The value under [key], [None] when absent. *)

val delete : t -> key:string -> bool
(** [true] when the key was present. *)

val iter_from : t -> key:string -> (string -> int -> bool) -> unit
(** In-order visit of all entries with key >= [key]; stop when the
    callback returns [false]. *)

val iter_prefix : t -> prefix:string -> (string -> int -> bool) -> unit
(** All entries whose key starts with [prefix]. *)

val iter_all : t -> (string -> int -> bool) -> unit

val scan_range : t -> lo:string -> hi:string -> (string -> int -> bool) -> unit
(** In-order visit of entries with [lo] <= key < [hi]; stop on [false]. *)

val max_binding : t -> (string * int) option
(** The largest entry, by a single rightmost descent ([None] when
    empty). Falls back to a leaf-chain walk in the rare case deletions
    emptied the rightmost leaf. *)

val entry_count : t -> int
(** Number of entries, by leaf walk. *)

val height : t -> int
(** Levels from root to leaf (1 = root is a leaf). *)

val max_key : int
(** Largest supported key length. *)

val validate : t -> (unit, string) result
(** Structural check: sorted keys, separator invariants, leaf chain
    consistency. Used by tests. *)

val clear : t -> unit
(** Drop every entry: the root becomes a fresh empty leaf. Freed pages
    are not returned to the file (same trade-off as {!Heap.reset});
    {!Table.vacuum} rebuilds indexes through this. *)

val pager : t -> Pager.t
val flush : t -> unit
