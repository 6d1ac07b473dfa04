(** Tables: typed rows in a heap file plus any number of B+tree indexes.

    This is the relational layer the paper's Repository Manager stores
    trees and species data in. An index maps a caller-defined key
    (computed from the row with the {!Key} encoders) to the row's rid;
    non-unique indexes get the rid appended to the key internally so all
    entries remain distinct and range scans return duplicates in stable
    order. Every row has an entry in every index of its table.

    Rows can also be read by rid with no index at all: {!get} decodes a
    value array, {!with_payload} hands the encoded bytes in place to a
    {!Record.Reader}. A rid is stable until {!vacuum}, which renumbers
    every row; callers that keep rids outside the table's own indexes
    must not vacuum it ({!Clustered} tables are such callers). *)

exception Constraint_violation of string

type index_spec = {
  index_name : string;
  key_of_row : Record.value array -> string;
      (** Order-preserving encoded key (see {!Key}). *)
  unique : bool;
}

type t

val create :
  name:string ->
  schema:Record.schema ->
  heap:Heap.t ->
  indexes:(index_spec * Btree.t) list ->
  t
(** Assemble a table over already-opened storage (done by {!Database}). *)

val name : t -> string
val schema : t -> Record.schema

val insert : t -> Record.value array -> Heap.rid
(** Validates against the schema, appends to the heap, maintains all
    indexes. Raises {!Constraint_violation} when a unique index already
    holds the key, and {!Record.Type_error} on schema mismatch. *)

val get : t -> Heap.rid -> Record.value array option

val with_payload : t -> Heap.rid -> (bytes -> int -> int -> 'a) -> 'a option
(** {!Heap.with_record} on the table's heap: [f page off len] runs on the
    row's encoded bytes while its page is pinned, and must not keep
    [page]. Charged to the request profile as one decoded row, as {!get}
    is. [None] for a deleted row. *)

val with_payloads : t -> Heap.rid -> count:int -> (int -> bytes -> int -> int -> int) -> int
(** {!Heap.with_records} on the table's heap: one page pin for up to
    [count] consecutive slots, [f i page off len] on each row the walk
    reaches, each charged as one decoded row; [f] returns the next slot
    it wants. Returns where the walk ended: [>= count], or the index of
    a deleted row. *)

val with_slots : t -> Heap.rid -> ((int -> (bytes -> int -> int -> 'a) -> 'a option) -> 'b) -> 'b
(** {!Heap.with_slots} on the table's heap: one page pin, the slots from
    [rid]'s read in any order, each read charged as one decoded row. *)

val heap_file : t -> string
(** The heap's file path ([<name>.heap] for an in-memory table): the
    file a [Corrupt_page] error about one of its rows names. *)

val delete : t -> Heap.rid -> bool
(** Removes the row and its index entries. [false] when already gone. *)

val update : t -> Heap.rid -> Record.value array -> Heap.rid
(** Delete + insert; returns the new rid. Raises [Invalid_argument] when
    the rid is dead. *)

val scan : t -> (Heap.rid -> Record.value array -> unit) -> unit

val find : t -> index:string -> key:string -> (Heap.rid * Record.value array) option
(** Point lookup on a unique index: [None] when the key is absent.
    Raises [Invalid_argument] for an unknown or non-unique index name —
    a programming error, unlike a missing key. *)

val iter_index :
  t -> index:string -> prefix:string -> (Heap.rid -> Record.value array -> bool) -> unit
(** All rows whose index key starts with [prefix], in key order; stop on
    [false]. Works on unique and non-unique indexes. *)

val scan_range :
  t ->
  index:string ->
  lo:string ->
  hi:string ->
  (Heap.rid -> Record.value array -> bool) ->
  unit
(** Rows with [lo] <= index key < [hi], in key order; stop on [false]. *)

val last_entry : t -> index:string -> (Heap.rid * Record.value array) option
(** The row under the largest key of [index], via a single rightmost
    descent — the cold-start id probe. [None] on an empty index. *)

val row_count : t -> int
val index_names : t -> string list
val rebuild_index : t -> index:string -> unit
(** Clear and repopulate from a heap scan (used after index-file loss). *)

val vacuum : t -> int
(** Compact the table: rewrite live rows contiguously from the first data
    page and rebuild every index. Record ids change. Returns the live row
    count. Space freed by {!delete} is reused afterwards (files do not
    shrink). *)

val flush : t -> unit
