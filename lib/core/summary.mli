(** Precomputed summary clusters: per-clade rollups over the layered
    decomposition, persisted in the [summaries] table.

    Every bounded-depth subtree of every layer gets one row carrying the
    rollup of the {e full original} clade under its root: node and leaf
    counts, height, and the total branch length of the edges inside the
    clade. Rows are computed from the in-memory tree at load time and
    written in the same WAL batch, before the tree's catalog row — a
    crash mid-load can never leave a visible tree without its summaries.

    The table is clustered (see [Crimson_storage.Clustered]), one group
    per (tree, layer) in [sub] order. An overview at resolution [k]
    ([{!overview} ~depth:k]) serves the clusters of the layer [k] steps
    below the top of the decomposition: one scan of that group, pinning
    each of its pages once, whose cost is the cluster count at that
    layer — [f]-fold fewer rows per level of resolution given up, and
    never the node pages. Each call counts as [core.summary.hit]. *)

type entry = {
  sub : int;  (** Cluster (subtree) id within its layer. *)
  root : int;  (** Cluster root as an original (layer-0) node id. *)
  parent_sub : int;  (** Containing cluster one layer up; -1 at the top. *)
  name : string;  (** Root node's label, [""] when unnamed. *)
  nodes : int;  (** Nodes of the full original clade under [root]. *)
  leaves : int;  (** Leaves of the clade. *)
  height : int;  (** Height (edge count) of the clade. *)
  blen : float;  (** Total branch length of the edges inside the clade. *)
}

val build : Crimson_label.Layered.t -> Crimson_tree.Tree.t -> entry array array
(** Every summary row of a tree, by layer, then by [sub], computed in one
    postorder pass over the in-memory tree (the loader calls this before
    it writes the catalog row). *)

val write : Repo.t -> tree_id:int -> entry array array -> int
(** Write {!build}'s rows, one group per layer; returns how many. *)

val layer_for : layer_count:int -> depth:int -> int
(** The decomposition layer serving resolution [depth]: [depth = 0] is
    the single top cluster, each step descends one layer, clamped at
    layer 0. *)

val iter : Stored_tree.t -> depth:int -> (entry -> unit) -> int
(** [iter stored ~depth f] calls [f] on each cluster at the given
    resolution, in ascending [sub] order, as one scan of the tree's
    (tree, layer) group decodes it, and returns the layer. The scan's
    directory rows are read once per handle; the entries are not kept. *)

val overview : Stored_tree.t -> depth:int -> int * entry list
(** [(layer, clusters)]: {!iter}'s clusters as a list. *)
