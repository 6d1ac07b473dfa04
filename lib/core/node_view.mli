(** Decoded node views and the per-tree LRU cache behind every
    {!Stored_tree} accessor.

    A view is one node row decoded once into an immutable struct. Rows
    are located through the tree's run directory ({!runs}, persisted in
    [node_runs]): a binary search on ids, one page pin, and a decode
    straight off the pinned page with no payload copy. The cache bounds
    how many views stay resident and refills on a miss by reading a
    window of adjacent ids (node ids are dense preorder, so neighbouring
    ids are what deep climbs and subtree sweeps touch next).

    Sequential runs that read each row once — a time-sampling frontier,
    a clade, a whole tree — use {!scan} instead, which streams rows past
    the cache so they do not evict the random-access working set.

    Every row read is checked to be the (tree, node) it was read for; a
    mismatch raises [Crimson_storage.Error.Error (Corrupt_page _)]
    naming [nodes.heap], never returns another node's row.
    [Table.vacuum] on [nodes] would cause one, because it renumbers rids;
    nothing vacuums [nodes].

    Telemetry: hits, misses and evictions are charged to the calling
    domain's {!Crimson_obs.Cost} record, which backs the
    [core.node_cache.*] counters and every profile. Prefetch batch
    sizes feed the [core.node_cache.prefetch_batch] histogram and scan
    times the [core.node_scan.ms] histogram — visible in [crimson stats]
    and BENCH lines. *)

module Record = Crimson_storage.Record

exception Unknown_node of int

type t = {
  node : int;
  parent : int; (* -1 for the root *)
  edge_index : int;
  name : string; (* "" = unnamed *)
  blen : float;
  root_dist : float;
  sub : int;
  local_depth : int;
  leaf_lo : int;
  leaf_hi : int;
  subtree_end : int; (* last preorder id below the node; [node] for a leaf *)
}
(** One fully decoded node row (layer 0). *)

type layer_view = {
  l_parent : int;
  l_edge_index : int;
  l_sub : int;
  l_local_depth : int;
}
(** A row of a layer > 0 of the layered label index. *)

val of_row : Record.value array -> t
(** Decode a [Schema.Nodes] row. *)

(** {1 The run directory} *)

type runs
(** Where a tree's rows lie in the [nodes] heap: one entry per run of
    consecutive ids in consecutive slots of one page, holding the run's
    first id, that row's rid and its [leaf_lo] (see
    {!Schema.Node_runs}). *)

val runs_of_rids : Crimson_storage.Heap.rid array -> leaf_lo:int array -> runs
(** The runs of rows written for ids [0 .. n-1], given the rid each
    insert returned and each node's [leaf_lo]. *)

val store_runs : Repo.t -> tree:int -> runs -> unit
(** Insert the runs into [node_runs]. *)

val delete_rows : Repo.t -> tree:int -> nodes:int -> unit
(** Delete the tree's [nodes] rows through its runs, then the runs.
    Raises [Corrupt_page] rather than delete a row that is not the
    tree's. *)

(** {1 The cache} *)

type cache

val default_capacity : int
val default_prefetch : int

val create_cache :
  ?capacity:int -> ?prefetch:int -> Repo.t -> tree:int -> nodes:int -> cache
(** A cache for one stored tree of [nodes] nodes. [capacity] bounds
    resident node views (layer rows and subtree roots get a quarter
    each, minimum 8); [prefetch] is the batch size pulled per miss,
    clamped to [capacity]. The tree's runs are read on the first access
    that needs them, not here. *)

val find : cache -> int -> t option
(** [None] when the node does not exist. *)

val node : cache -> int -> t
(** Raises {!Unknown_node}. *)

val leaf_by_ordinal : cache -> int -> int option
(** Node id of the leaf with the given preorder ordinal, [None] when out
    of range: a binary search of the runs on [leaf_lo], then of one
    run's rows (resident views first). The leaf's view is admitted. *)

val prime : cache -> runs:runs -> count:int -> (int -> t) -> unit
(** [prime c ~runs ~count view_of] adopts the tree's runs and admits
    [view_of n] for the ids [0 .. min count capacity - 1], with no
    storage reads. The loader uses it to hand back a warm handle built
    from the rows it just wrote; the views must equal what {!of_row}
    decodes from them. *)

val scan : cache -> lo:int -> hi:int -> (t -> int) -> unit
(** Stream the views of ids [lo .. hi] in ascending order, decoded off
    their pages without admitting them to the LRU. The callback returns
    the next id it wants: [v.node + 1] steps to the next row, a larger id
    jumps there at no extra cost, an id past [hi] ends the scan. Polls
    the request deadline per row, as {!find} does. *)

val layer_view : cache -> layer:int -> int -> layer_view
(** Raises {!Unknown_node}. Valid for layers >= 1. *)

val sub_root : cache -> layer:int -> int -> int
(** Root node id of a subtree at the given layer. Raises
    {!Unknown_node}. *)

val invalidate : cache -> unit
(** Drop every cached view. Only needed if a handle is reused across a
    mutation of its tree's rows, which the loader never does. *)

val resident : cache -> int
(** How many views, layer rows and sub-roots the cache holds. *)
