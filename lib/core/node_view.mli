(** Decoded node views and the per-tree LRU cache behind every
    {!Stored_tree} accessor.

    A view is one node row decoded once into an immutable struct; the
    cache bounds how many stay resident and refills on a miss by
    streaming a run of adjacent node ids through a {!Table.cursor} in a
    single index descent (node ids are dense preorder, so neighbouring
    ids are what deep climbs and subtree sweeps touch next).

    Sequential runs that read each row once — a time-sampling frontier,
    a clade, a whole tree — use {!scan} instead, which streams rows past
    the cache so they do not evict the random-access working set.

    Telemetry: hits, misses and evictions are registered as
    [core.node_cache.*] counters, prefetch batch sizes as the
    [core.node_cache.prefetch_batch] histogram, scan times as the
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
val default_prefetch : int

val create_cache : ?capacity:int -> ?prefetch:int -> Repo.t -> tree:int -> cache
(** A cache for one stored tree. [capacity] bounds resident node views
    (layer rows and subtree roots get a quarter each, minimum 8);
    [prefetch] is the batch size pulled per miss, clamped to
    [capacity]. *)

val find : cache -> int -> t option
(** [None] when the node does not exist. *)

val node : cache -> int -> t
(** Raises {!Unknown_node}. *)

val prime : cache -> count:int -> (int -> t) -> unit
(** [prime c ~count view_of] admits [view_of n] for the ids
    [0 .. min count capacity - 1], with no storage reads. The loader
    uses it to hand back a warm handle built from the rows it just
    wrote; the views must equal what {!of_row} decodes from them. *)

val scan : cache -> lo:int -> hi:int -> (t -> int) -> unit
(** Stream the views of ids [lo .. hi] in ascending order through one
    [by_node] cursor, without admitting them to the LRU. The callback
    returns the next id it wants: [v.node + 1] steps to the next row, a
    larger id re-seeks the cursor there (one index descent), an id past
    [hi] ends the scan. Polls the request deadline per row, as {!find}
    does. *)

val layer_view : cache -> layer:int -> int -> layer_view
(** Raises {!Unknown_node}. Valid for layers >= 1. *)

val sub_root : cache -> layer:int -> int -> int
(** Root node id of a subtree at the given layer. Raises
    {!Unknown_node}. *)

val invalidate : cache -> unit
(** Drop every cached view. Only needed if a handle is reused across a
    mutation of its tree's rows, which the loader never does. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
}

val stats : cache -> stats
(** Per-cache counters (the registry aggregates across all caches). *)
