(** A tree's name run: its named nodes sorted by (name, id), front-coded
    into page-sized blocks, one sorted group of the clustered [names]
    table (see {!Schema.Names} and [Crimson_storage.Clustered]).

    A block holds entries of (shared-prefix length, suffix, node id),
    each coded against the entry before it, as varints and bytes. Every
    16th entry is a restart, which holds its full name; a table of
    restart offsets closes the block. The directory row of block [b]
    holds its first entry's (name, id), {!Crimson_storage.Key}-encoded.

    A lookup searches those keys in memory, pins one page, binary-searches
    the block's restarts and decodes at most 16 entries into a buffer the
    handle reuses. One name's entries may straddle two blocks, so the
    block searched is the first that can hold the name: the last whose
    first name sorts before it. When that block does not hold the name,
    its lowest id, if any, opens the next block, and the directory key
    holds it. *)

val max_name : int
(** The longest node name a load accepts: the node row that also holds
    it still fits a page, and so does one block holding it alone. *)

val sort : Crimson_tree.Tree.t -> int array
(** The ids of the tree's named nodes (empty names are not names), in
    (name, id) order: the run's entries before they are written. *)

val lowest : Crimson_tree.Tree.t -> int array -> string -> int option
(** [lowest tree sorted name] is the lowest id named [name], a binary
    search of [sorted] (from {!sort}): what {!find} answers once the run
    is written. *)

type t
(** One tree's run, with its directory in memory. *)

val write : Repo.t -> tree:int -> Crimson_tree.Tree.t -> int array -> t
(** [write repo ~tree t sorted] writes the run of [t] under tree id
    [tree] in block order, one row per block (none when no node is
    named), and returns it with the directory it wrote. Raises
    [Invalid_argument] for a name longer than {!max_name}. *)

val open_run : Repo.t -> tree:int -> t
(** The run's directory, read with one B+tree prefix scan. *)

val find : t -> string -> int option
(** The lowest id carrying the name, [None] when none does. The handle
    keeps the directory it read, so once the run is deleted, a lookup
    that reads a block answers [None], and one answered from the
    directory's keys alone still answers. *)

val iter : t -> (string -> int -> unit) -> unit
(** Every entry in run order, name and id, one page pin per block. *)

val check : t -> names:string array -> (unit, string) result
(** The run check, against [names] — each node id's stored name, [""]
    when unnamed: the directory check of the run's group; entries in
    strictly ascending (name, id) order, within blocks and across them;
    each block is a run of its own, and its directory key is its first
    entry; each entry's name is
    its node's; and every named node has exactly one entry. *)
