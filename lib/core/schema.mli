(** Relational schemas of the Crimson repositories.

    The Repository Manager stores trees, species and history in these
    tables (the collection tables are described below):

    - [trees] — one row per loaded tree (metadata, labeling parameters);
    - [nodes] — layer-0 rows: structure, branch length, cumulative
      root distance, layered-label fields, descendant-leaf interval and
      the last preorder id of the node's subtree, written in id order
      and indexed by name only;
    - [node_runs] — the per-tree run directory that locates a node row
      by id, and a leaf by ordinal, without an index descent;
    - [layers] — nodes of layers >= 1 of the hierarchical index;
    - [subtrees] — per (layer, subtree id): the subtree's root node;
    - [species] — sequence data, chunked to fit pages;
    - [summaries] — precomputed per-clade rollups;
    - [queries] — the Query Repository (history of user queries).

    Column positions are exposed as integer constants so the query layer
    decodes rows without string lookups. *)

module Record = Crimson_storage.Record
module Table = Crimson_storage.Table

(** [trees] columns. *)
module Trees : sig
  val schema : Record.schema
  val c_id : int
  val c_name : int
  val c_f : int
  val c_layers : int
  val c_nodes : int
  val c_leaves : int
  val indexes : Table.index_spec list
  val key_id : int -> string
  val key_name : string -> string
end

(** [nodes] columns (layer 0).

    Node ids are dense preorder ranks, so the subtree of node [n] is the
    id range [\[n, subtree_end\]]. That one column answers children
    (first child [n + 1], next sibling [subtree_end c + 1]), leafness
    ([subtree_end = n]) and ancestry without a parent index. It is the
    last column, appended after the leaf interval.

    There is no index on (tree, node): the loader writes a tree's rows
    in id order, and {!Node_runs} locates them. Every row keeps its
    [tree] and [node] columns so a read can check it got the row it
    asked for. Repositories written before [subtree_end] existed, or
    with the older [by_node] index, fail to open (see {!Repo.open_dir}). *)
module Nodes : sig
  val schema : Record.schema
  val c_tree : int
  val c_node : int
  val c_parent : int
  val c_edge_index : int
  val c_name : int
  val c_blen : int
  val c_root_dist : int
  val c_sub : int
  val c_local_depth : int
  val c_leaf_lo : int
  val c_leaf_hi : int
  val c_subtree_end : int

  val indexes : Table.index_spec list
  (** [by_name] (tree, name), non-unique and partial: unnamed nodes have
      no entry. *)

  val key_name : tree:int -> string -> string
end

(** [node_runs] columns — the run directory of the [nodes] heap.

    A tree's rows are written for ids [0 .. n-1] in order, so each heap
    page holds a run of consecutive ids in consecutive slots. One row per
    run: the run's [first] id, that row's [rid], and its [leaf_lo]. The
    run of id [i] is the last with [first <= i], and its rid is the
    first rid plus [i - first]; leaf ordinals search the same rows on
    [leaf_lo], which never decreases as ids rise. The format (building,
    storing, loading) belongs to [Crimson_core.Node_view]. *)
module Node_runs : sig
  val schema : Record.schema
  val c_tree : int
  val c_first : int
  val c_rid : int
  val c_leaf_lo : int

  val indexes : Table.index_spec list
  (** [by_first] (tree, first), unique. *)

  val key_tree : int -> string
  (** Prefix of every key of one tree. *)
end

(** [layers] columns (layers >= 1). *)
module Layers : sig
  val schema : Record.schema
  val c_tree : int
  val c_layer : int
  val c_node : int
  val c_parent : int
  val c_edge_index : int
  val c_sub : int
  val c_local_depth : int
  val indexes : Table.index_spec list
  val key_node : tree:int -> layer:int -> int -> string
end

(** [subtrees] columns. *)
module Subtrees : sig
  val schema : Record.schema
  val c_tree : int
  val c_layer : int
  val c_sub : int
  val c_root : int
  val indexes : Table.index_spec list
  val key_sub : tree:int -> layer:int -> int -> string
end

(** [species] columns; long sequences are split into fixed-size chunks. *)
module Species : sig
  val chunk_size : int
  val schema : Record.schema
  val c_tree : int
  val c_name : int
  val c_chunk : int
  val c_seq : int
  val indexes : Table.index_spec list
  val key_chunk : tree:int -> name:string -> int -> string
  val key_name : tree:int -> name:string -> string
end

(** [summaries] columns — precomputed per-clade rollups, one row per
    bounded-depth subtree of every layer of the layered decomposition.
    [root] is the cluster root as an original (layer-0) node id;
    [parent_sub] the containing cluster id one layer up ([-1] at the
    top); the rollup columns cover the full original subtree under
    [root]. Built at load time in the same WAL batch as the tree (see
    [Crimson_core.Summary]); an overview at resolution [k] range-scans
    one (tree, layer) prefix via {!Summaries.key_layer}. *)
module Summaries : sig
  val schema : Record.schema
  val c_tree : int
  val c_layer : int
  val c_sub : int
  val c_root : int
  val c_parent_sub : int
  val c_name : int
  val c_nodes : int
  val c_leaves : int
  val c_height : int
  val c_blen : int
  val indexes : Table.index_spec list
  val key_sub : tree:int -> layer:int -> int -> string
  val key_layer : tree:int -> layer:int -> string
end

(** [collections] columns — the tree-collection catalog. One row per
    named collection: taxon count, member count, the next free
    dictionary id and the sorted taxon names (length-prefixed blob).
    All access logic lives in the [Crimson_collection] library. *)
module Collections : sig
  val schema : Record.schema
  val c_id : int
  val c_name : int
  val c_n_taxa : int
  val c_n_trees : int
  val c_next_bip : int
  val c_taxa : int
  val c_created : int
  val indexes : Table.index_spec list
  val key_id : int -> string
  val key_name : string -> string
end

(** [bips] columns — the shared bipartition dictionary: canonical clade
    bitmaps with occurrence counts, keyed by dense id and by bitmap. *)
module Bips : sig
  val schema : Record.schema
  val c_coll : int
  val c_bip : int
  val c_count : int
  val c_bitmap : int
  val indexes : Table.index_spec list
  val key_id : coll:int -> int -> string
  val key_bitmap : coll:int -> string -> string

  val key_coll : int -> string
  (** Prefix of every key of one collection, for dictionary scans. *)
end

(** [members] columns — per-tree encodings as dictionary-id lists,
    stored full (kind 0) or delta-encoded against a base member
    (kind 1). *)
module Members : sig
  val kind_full : int
  val kind_delta : int
  val schema : Record.schema
  val c_coll : int
  val c_member : int
  val c_name : int
  val c_kind : int
  val c_base : int
  val c_n_bips : int
  val c_enc : int
  val indexes : Table.index_spec list
  val key_id : coll:int -> int -> string
  val key_name : coll:int -> string -> string
  val key_coll : int -> string
end

(** [queries] columns — the Query Repository. *)
module Queries : sig
  val schema : Record.schema

  val legacy_schema : Record.schema
  (** The pre-telemetry 4-column layout, kept for the on-open migration
      of old repositories. *)

  val legacy_schema_v1 : Record.schema
  (** The first telemetry layout (elapsed_ms/pages, no cost breakdown),
      kept for the on-open migration as well. *)

  val c_id : int
  val c_time : int
  val c_text : int
  val c_result : int
  val c_elapsed_ms : int
  val c_pages : int
  val c_cost : int
  val indexes : Table.index_spec list
  val key_id : int -> string
end
