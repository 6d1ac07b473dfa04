(** Decoded node views and the per-tree LRU cache behind every
    {!Stored_tree} accessor.

    A view is one node row decoded once into an immutable struct. Rows
    of [nodes], [layers] and [subtrees] live in clustered tables (see
    [Crimson_storage.Clustered]): a directory search, one page pin, and
    a decode straight off the pinned page with no payload copy. A cache
    reads each directory group it needs — the tree's [nodes] group, a
    (tree, layer) group of the others — once. It bounds how many views
    stay resident, and a miss reads its own row and no other: the cached
    path is layered LCA climbs, whose working set is their label path,
    not neighbouring ids.

    Sequential runs that read each row once — a time-sampling frontier,
    a clade, a whole tree — use {!scan} instead, which streams rows past
    the cache, pinning each page once, so they do not evict the
    random-access working set.

    Leaf ordinals resolve through a leaf map per run, one bit per row,
    held in memory beside the directory ({!leaf_by_ordinal}): a
    directory search, a select in the map and one {!node}. The loader
    hands a fresh handle every map; a handle that read its runs from the
    directory fills a run's map from the run's page the first time an
    ordinal lands in it.

    Every row read is checked to be the (tree, node) — or (tree, layer,
    id) — it was read for; a mismatch raises
    [Crimson_storage.Error.Error (Corrupt_page _)] naming the table's
    heap file, never returns another row. [Table.vacuum] on a clustered
    table would cause one, because it renumbers rids; nothing vacuums
    them.

    Telemetry: hits, misses and evictions are charged to the calling
    domain's {!Crimson_obs.Cost} record, which backs the
    [core.node_cache.*] counters and every profile. Miss fetch times
    feed the [core.node_cache.fetch_ms] histogram and scan times the
    [core.node_scan.ms] histogram — visible in [crimson stats] and BENCH
    lines. *)

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

(** {1 The cache} *)

type cache

val default_capacity : int

val capacity : cache -> int
(** The bound on resident node views this cache was created with. *)

val create_cache : ?capacity:int -> Repo.t -> tree:int -> nodes:int -> cache
(** A cache for one stored tree of [nodes] nodes. [capacity] bounds
    resident node views (layer rows and subtree roots get a quarter
    each, minimum 8). A miss of any of them reads and admits its own
    row. Directory groups are read on the first access that needs them,
    not here. *)

val group :
  cache -> (Repo.t -> Crimson_storage.Table.t) -> layer:int -> Crimson_storage.Clustered.group
(** [group c table ~layer] is the tree's (tree, layer) group of a
    clustered table other than [nodes] ([Repo.layers], [Repo.subtrees],
    [Repo.summaries]), its directory rows read on first use and kept. *)

val node : cache -> int -> t
(** Raises {!Unknown_node}. *)

val leaf_by_ordinal : cache -> int -> int option
(** Node id of the leaf with the given preorder ordinal, [None] when out
    of range: a binary search of the runs on their first [leaf_lo], a
    select in that run's leaf map and one {!node}, which admits the leaf's view. A run
    whose map is not filled yet is read first: one page pin, every row
    checked and decoded off the page, none admitted. *)

val prime :
  cache -> Crimson_storage.Clustered.group -> subtree_end:int array -> (int -> t) -> unit
(** [prime c nodes ~subtree_end view_of] adopts the tree's [nodes]
    group, builds every run's leaf map from [subtree_end], and admits
    [view_of n] for the ids [0 .. min nodes capacity - 1], with no
    storage reads. The loader uses it to hand back a warm handle built
    from the rows it just wrote; the views must equal what {!of_row}
    decodes from them. *)

val scan : cache -> lo:int -> hi:int -> (t -> int) -> unit
(** Stream the views of ids [lo .. hi] in ascending order, decoded off
    their pages without admitting them to the LRU. The callback returns
    the next id it wants: [v.node + 1] steps to the next row, a larger id
    jumps there at no extra cost, an id past [hi] ends the scan. Polls
    the request deadline per row, as {!node} does. *)

val layer_view : cache -> layer:int -> int -> layer_view
(** Raises {!Unknown_node}. Valid for layers >= 1. *)

val sub_root : cache -> layer:int -> int -> int
(** Root node id of a subtree at the given layer. Raises
    {!Unknown_node}. *)

val invalidate : cache -> unit
(** Drop every cached view. Only needed if a handle is reused across a
    mutation of its tree's rows, which the loader never does. The
    directory groups and the leaf maps stay. *)

val resident : cache -> int
(** How many views, layer rows and sub-roots the cache holds. *)
