module Record = Crimson_storage.Record
module Table = Crimson_storage.Table
module Key = Crimson_storage.Key

let ix name key unique : Table.index_spec =
  { Table.index_name = name; key_of_row = key; unique }

module Trees = struct
  let schema : Record.schema =
    [|
      ("id", Record.Int);
      ("name", Record.Text);
      ("f", Record.Int);
      ("layers", Record.Int);
      ("nodes", Record.Int);
      ("leaves", Record.Int);
    |]

  let c_id = 0
  let c_name = 1
  let c_f = 2
  let c_layers = 3
  let c_nodes = 4
  let c_leaves = 5
  let key_id id = Key.int id
  let key_name name = Key.text name

  let indexes =
    [
      ix "by_id" (fun row -> key_id (Record.get_int row c_id)) true;
      ix "by_name" (fun row -> key_name (Record.get_text row c_name)) true;
    ]
end

module Nodes = struct
  (* [Node_view] decodes rows field by field in this column order. *)
  let schema : Record.schema =
    [|
      ("tree", Record.Int);
      ("node", Record.Int);
      ("parent", Record.Int);
      ("edge_index", Record.Int);
      ("name", Record.Text);
      ("blen", Record.Float);
      ("root_dist", Record.Float);
      ("sub", Record.Int);
      ("local_depth", Record.Int);
      ("leaf_lo", Record.Int);
      ("leaf_hi", Record.Int);
      ("subtree_end", Record.Int);
    |]

  let c_tree = 0
  let c_node = 1
  let c_parent = 2
  let c_edge_index = 3
  let c_name = 4
  let c_blen = 5
  let c_root_dist = 6
  let c_sub = 7
  let c_local_depth = 8
  let c_leaf_lo = 9
  let c_leaf_hi = 10
  let c_subtree_end = 11
end

module Names = struct
  let schema : Record.schema =
    [| ("tree", Record.Int); ("block", Record.Int); ("entries", Record.Blob) |]
end

module Layers = struct
  let schema : Record.schema =
    [|
      ("tree", Record.Int);
      ("layer", Record.Int);
      ("node", Record.Int);
      ("parent", Record.Int);
      ("edge_index", Record.Int);
      ("sub", Record.Int);
      ("local_depth", Record.Int);
    |]
end

module Subtrees = struct
  let schema : Record.schema =
    [|
      ("tree", Record.Int);
      ("layer", Record.Int);
      ("sub", Record.Int);
      ("root", Record.Int);
    |]
end

module Species = struct
  let chunk_size = 2048

  let schema : Record.schema =
    [|
      ("tree", Record.Int);
      ("row", Record.Int);
      ("name", Record.Text);
      ("chunk", Record.Int);
      ("seq", Record.Blob);
    |]

  (* Three ints take at most 10 varint bytes each, and each of the two
     strings' lengths 2. A load refuses every name too long to leave a
     byte. *)
  let chunk_bytes name =
    max 1 (min chunk_size (Crimson_storage.Slotted.max_record - 34 - String.length name))
end

(* ------------------------- Summary clusters ------------------------- *)

(* Precomputed per-clade rollups, one row per bounded-depth subtree of
   every layer of the layered decomposition: the cluster's root as an
   original (layer-0) node id, the containing cluster one layer up, and
   the rollup over the {e full} original subtree under that root (node
   and leaf counts, height, total branch length). Rows are written in
   the same WAL batch as the tree itself — before its catalog row, so a
   crash mid-load leaves no tree whose summaries are missing — and
   dropped with [Loader.delete_tree]. Low-resolution "overview" views
   scan one (tree, layer) group instead of the nodes table. *)

module Summaries = struct
  let schema : Record.schema =
    [|
      ("tree", Record.Int);
      ("layer", Record.Int);
      ("sub", Record.Int);
      ("root", Record.Int);
      ("parent_sub", Record.Int);
      ("name", Record.Text);
      ("nodes", Record.Int);
      ("leaves", Record.Int);
      ("height", Record.Int);
      ("blen", Record.Float);
    |]
end

(* ------------------------- Tree collections ------------------------- *)

(* A collection is a named set of trees over one shared taxon set,
   stored as a bipartition dictionary plus per-member id lists (see
   lib/collection). Three tables: the catalog row per collection, the
   reference-counted dictionary of canonical clade bitmaps, and the
   member encodings. *)

module Collections = struct
  let schema : Record.schema =
    [|
      ("id", Record.Int);
      ("name", Record.Text);
      ("n_taxa", Record.Int);
      ("n_trees", Record.Int);
      ("next_bip", Record.Int);
      ("taxa", Record.Blob);
      ("created", Record.Float);
    |]

  let c_id = 0
  let c_name = 1
  let c_n_taxa = 2
  let c_n_trees = 3
  let c_next_bip = 4
  let c_taxa = 5
  let key_id id = Key.int id
  let key_name name = Key.text name

  let indexes =
    [
      ix "by_id" (fun row -> key_id (Record.get_int row c_id)) true;
      ix "by_name" (fun row -> key_name (Record.get_text row c_name)) true;
    ]
end

module Bips = struct
  (* One row per distinct bipartition (clade) of a collection: the
     canonical leaf-set bitmap (ceil(n_taxa/8) bytes, taxon ordinal i at
     byte i/8 bit i%8) keyed both by dense dictionary id and by the
     bitmap itself — the by_bitmap B+tree is what makes sharing across
     members a point lookup. [count] is the occurrence count across the
     collection's members (the reference count consensus and support
     read). *)
  let schema : Record.schema =
    [|
      ("coll", Record.Int);
      ("bip", Record.Int);
      ("count", Record.Int);
      ("bitmap", Record.Blob);
    |]

  let c_coll = 0
  let c_bip = 1
  let c_count = 2
  let c_bitmap = 3
  let key_id ~coll bip = Key.cat [ Key.int coll; Key.int bip ]
  let key_bitmap ~coll bitmap = Key.cat [ Key.int coll; Key.text bitmap ]
  let key_coll coll = Key.int coll

  let indexes =
    [
      ix "by_id"
        (fun row -> key_id ~coll:(Record.get_int row c_coll) (Record.get_int row c_bip))
        true;
      ix "by_bitmap"
        (fun row ->
          key_bitmap ~coll:(Record.get_int row c_coll) (Record.get_blob row c_bitmap))
        true;
    ]
end

module Members = struct
  (* One row per member tree: its clade set as dictionary ids. [kind] 0
     stores the sorted id list gap-varint-encoded in [enc]; kind 1
     delta-encodes against member [base]'s id set (adds + removes, both
     gap-varint lists). [n_bips] is the decoded set size either way. *)
  let kind_full = 0
  let kind_delta = 1

  let schema : Record.schema =
    [|
      ("coll", Record.Int);
      ("member", Record.Int);
      ("name", Record.Text);
      ("kind", Record.Int);
      ("base", Record.Int);
      ("n_bips", Record.Int);
      ("enc", Record.Blob);
    |]

  let c_coll = 0
  let c_member = 1
  let c_name = 2
  let c_kind = 3
  let c_base = 4
  let c_n_bips = 5
  let c_enc = 6
  let key_id ~coll member = Key.cat [ Key.int coll; Key.int member ]
  let key_name ~coll name = Key.cat [ Key.int coll; Key.text name ]
  let key_coll coll = Key.int coll

  let indexes =
    [
      ix "by_id"
        (fun row ->
          key_id ~coll:(Record.get_int row c_coll) (Record.get_int row c_member))
        true;
      ix "by_name"
        (fun row ->
          key_name ~coll:(Record.get_int row c_coll) (Record.get_text row c_name))
        true;
    ]
end

module Queries = struct
  let schema : Record.schema =
    [|
      ("id", Record.Int);
      ("time", Record.Float);
      ("text", Record.Text);
      ("result", Record.Text);
      ("elapsed_ms", Record.Float);
      ("pages", Record.Int);
      ("cost", Record.Text);
    |]

  let c_id = 0
  let c_time = 1
  let c_text = 2
  let c_result = 3
  let c_elapsed_ms = 4
  let c_pages = 5
  let c_cost = 6
  let key_id id = Key.int id
  let indexes = [ ix "by_id" (fun row -> key_id (Record.get_int row c_id)) true ]
end
