(** Relational schemas of the Crimson repositories.

    The Repository Manager stores trees, species and history in these
    tables (the collection tables are described below):

    - [trees] — one row per loaded tree (metadata, labeling parameters);
    - [nodes] — layer-0 rows: structure, branch length, cumulative
      root distance, layered-label fields, descendant-leaf interval and
      the last preorder id of the node's subtree;
    - [names] — each tree's named nodes sorted by (name, id),
      front-coded into page-sized blocks (see {!Name_run});
    - [layers] — nodes of layers >= 1 of the hierarchical index;
    - [subtrees] — per (layer, subtree id): the subtree's root node;
    - [summaries] — precomputed per-clade rollups;
    - [species] — sequence data, chunked to fit pages, one sorted run
      per tree;
    - [node_runs] — the run directory of those six clustered tables
      (see [Crimson_storage.Clustered]): their rows are written in key
      order, one group per tree ([nodes], [names], [species]) or per
      (tree, layer), and found by id, or by first key, with no B+tree;
    - [queries] — the Query Repository (history of user queries).

    Column positions are exposed as integer constants so the query layer
    decodes rows without string lookups; the clustered tables are
    decoded column by column, in schema order. *)

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

    There is no index on the table: a clustered table, one group per
    tree, written in id order. Every row keeps its [tree] and [node]
    columns so a read can check it got the row it asked for. Names are
    found through the tree's [names] run. *)
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
end

(** [names] columns: (tree, block, entries). A clustered table, one
    sorted group per tree: block [b] holds a page-sized run of the
    tree's named nodes in (name, id) order, and its directory row holds
    the block's first (name, id). {!Name_run} writes and reads the
    entries. *)
module Names : sig
  val schema : Record.schema
end

(** [layers] columns (layers >= 1): (tree, layer, node, parent,
    edge_index, sub, local_depth). A clustered table, one group per
    (tree, layer) (see [Crimson_storage.Clustered]). *)
module Layers : sig
  val schema : Record.schema
end

(** [subtrees] columns: (tree, layer, sub, root), the root node of each
    subtree of each layer. Clustered, one group per (tree, layer). *)
module Subtrees : sig
  val schema : Record.schema
end

(** [species] columns: (tree, row, name, chunk, seq). A clustered table,
    one sorted group per tree that has sequences: a species' sequence is
    cut into chunks numbered from 0, and row [row] of the group is the
    [row]th (name, chunk) pair in ascending order. Each run's directory
    row holds its first row's (name, chunk), so a lookup searches those
    keys in memory, binary-searches one run's page for the name's first
    row and scans from there. *)
module Species : sig
  val chunk_size : int
  (** The most sequence bytes one row holds. *)

  val schema : Record.schema

  val chunk_bytes : string -> int
  (** [chunk_bytes name] is the sequence bytes one row of species [name]
      holds: {!chunk_size}, or less when the name leaves less of the
      page. *)
end

(** [summaries] columns — precomputed per-clade rollups, one row per
    bounded-depth subtree of every layer of the layered decomposition:
    (tree, layer, sub, root, parent_sub, name, nodes, leaves, height,
    blen). [root] is the cluster root as an original (layer-0) node id;
    [parent_sub] the containing cluster id one layer up ([-1] at the
    top); the rollup columns cover the full original subtree under
    [root]. Built at load time in the same WAL batch as the tree (see
    [Crimson_core.Summary]). Clustered, one group per (tree, layer): an
    overview at resolution [k] scans one group. *)
module Summaries : sig
  val schema : Record.schema
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
  val indexes : Table.index_spec list
  val key_id : int -> string
  val key_name : string -> string
end

(** [bips] columns — the shared bipartition dictionary: canonical clade
    bitmaps with occurrence counts, keyed by dense id and by bitmap. *)
module Bips : sig
  val schema : Record.schema
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
