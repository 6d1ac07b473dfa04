(** Clustered tables: rows kept in key order and located through a run
    directory instead of a B+tree.

    A clustered table holds its rows in groups. A group is named by a
    short list of ints — in Crimson a tree id, or a tree id and a layer —
    and every row of a group begins with those ints as its leading [Int]
    columns, then the row's id. Ids are dense within a group: [0 .. n-1].
    A group is written once, in id order ({!write}), so the rids its
    inserts return form runs of consecutive slots of one heap page. The
    directory holds one row per run: the run's first id, its row count,
    its first rid, a mark the writer chooses (Crimson's [nodes] runs
    keep their first row's leaf ordinal there) and a first key. Every
    clustered table of a database shares one directory table
    ({!directory_schema}).

    A group is dense or sorted. A dense group is found by id alone, and
    its runs' keys are empty. A sorted group's rows also ascend by a
    byte-string key the writer gives ([~first_key]), and each run's
    directory row holds its first row's key, so {!below} finds the run
    whose rows can hold a key with no read, and {!seek} the row within
    that run, its page pinned once. Crimson's [species] table is sorted
    this way: its runs hold many (name, chunk) rows each. A
    sorted group whose rows are page-sized blocks ([~row_runs:true])
    gives every row a run of its own, so {!below} picks a row: Crimson's
    [names] table holds one block of names per row.

    A point lookup is a binary search of the group's runs, one page pin
    and a decode checked against the group and the id. A range scan
    pins each page once. Both read the directory rows once per
    {!group} handle ({!open_group}), one B+tree prefix scan.

    Rids are kept in the directory, so a clustered table must never be
    vacuumed. A row read at a rid that does not hold the group's row for
    that id, or that does not decode, raises
    [Error.Error (Corrupt_page _)] naming the table's heap file; no read
    returns another row. *)

type t
(** A clustered table: its heap table and the directory it shares. *)

val create : Table.t -> directory:Table.t -> t

val directory_schema : Record.schema
(** The directory's columns: [table] (the clustered table's name),
    [group] (its ints, {!Key}-encoded), [first], [rows], [rid], [mark],
    [key]. *)

val directory_indexes : Table.index_spec list
(** [by_first] (table, group, first), unique. *)

type group
(** One group of one clustered table, with its runs read. A group never
    changes once written, so a handle stays valid until the group is
    deleted; its rows then read as missing. *)

type run = {
  first : int;  (** The run's first id. *)
  rows : int;  (** Ids [first .. first + rows - 1]. *)
  rid : Heap.rid;  (** The rid of id [first]; the others follow slot by slot. *)
  mark : int;  (** The writer's value for the run's first row. *)
  key : string;  (** A sorted group's key of the run's first row; [""] in a dense group. *)
}

val max_key : t -> int list -> int
(** [max_key t key] is the longest first key, in bytes, that a directory
    row of group [key] holds: a longer one does not fit its page. *)

val write :
  t ->
  int list ->
  ?mark:(int -> int) ->
  ?first_key:(int -> string) ->
  ?row_runs:bool ->
  rows:int ->
  (int -> Record.value array) ->
  group
(** [write t key ~rows row] inserts [row 0 .. row (rows - 1)] in id order
    and one directory row per run of the rids they land at; [mark id]
    (default 0) is stored with each run that starts at [id]. With
    [first_key] the group is sorted: each run is stored with
    [first_key id] of its first row [id], and the keys must ascend.
    [~row_runs:true] (default [false]) ends a run after every row.
    Raises [Invalid_argument] when a row does not begin with [key] and
    its id, or when a row or a first key does not fit a page. *)

val open_group : t -> int list -> group
(** The group's runs, read from the directory: no rows, hence no ids,
    when it has none. *)

val size : group -> int
(** The group's row count: its ids are [0 .. size - 1]. *)

val runs : group -> run array
(** In id order, covering [0 .. size - 1]. Do not mutate. *)

val below : group -> string -> int
(** [below g key] is the first row of the run whose rows can hold [key]
    in a sorted group: the last run whose first key is at most [key]
    ([String.compare]). [-1] when none is, and a scan for [key] then
    starts at row 0. A binary search of the keys in memory. *)

val run_end : group -> int -> int
(** [run_end g id] is one past the last row of the run holding row [id]
    (in [0, size)): a scan bounded by it reads one page. *)

val find : group -> int -> (Record.Reader.t -> 'a) -> 'a option
(** [find g id decode] locates [id], pins its page and checks the row's
    key, then [decode]s the columns after it off the pinned page. [None]
    when [id] is outside the group or its row was deleted. *)

val seek : group -> lo:int -> (Record.Reader.t -> int) -> int
(** [seek g ~lo cmp] is the first row from [lo] to the end of [lo]'s run
    that [cmp] does not place before the probe ([cmp r >= 0], [r] at the
    columns after the key, each row checked as {!find} does), or the
    run's end: a binary search of a sorted group's rows within one run,
    its page pinned once. [lo] itself when it is outside the group. *)

val scan :
  group -> lo:int -> hi:int -> (int -> Record.Reader.t -> 'a) -> ('a -> int) -> unit
(** [scan g ~lo ~hi decode f] reads the rows of ids [lo .. hi] in
    ascending order, pinning each page once: each row is checked and
    [decode id]d off its page as {!find} does, then passed to [f], which
    returns the next id it wants. [id + 1] steps to the next row, a
    larger id jumps there without reading the rows between, an id past
    [hi] ends the scan. A deleted row ends it too. [f] runs while the
    page is pinned. *)

val delete : t -> int list -> unit
(** [delete t key] deletes every group whose key begins with [key]: the
    group [key], and with a tree id alone every group of that tree. Each
    run's rows go, each checked to be its group's, then the directory
    rows; one prefix scan of the directory finds them all, also the runs
    of a group whose other runs were never written. *)

val groups : t -> int list list
(** Every group of this table the directory holds, in key order. *)

val check : group -> rows:int -> (unit, string) result
(** The directory check: the runs cover ids [0 .. rows - 1] exactly
    once, in order, and every row decodes in full at its own rid with
    the group's key and its id. In a sorted group the runs' first keys
    ascend strictly; that each is its first row's key is the reader's
    to check. *)
