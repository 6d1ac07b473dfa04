(** Minimal spanning clade (paper §2.2): given input leaves, the set of
    nodes in the subtree rooted at their least common ancestor. *)

val root_of : Stored_tree.t -> int list -> int
(** The clade root = LCA of the input nodes. Raises [Invalid_argument]
    on the empty list. *)

val size : Stored_tree.t -> int list -> int
(** Number of {e leaves} in the clade, from stored leaf-ordinal intervals
    — O(1) after the LCA. *)

val leaf_ids : ?limit:int -> Stored_tree.t -> int list -> int list
(** Leaves of the clade in preorder, at most [limit] (default 10_000) to
    keep huge clades from materialising by accident: the rows of the id
    range [\[lca, subtree_end lca\]] with [subtree_end = node], streamed
    past the view cache until [limit] leaves are found. *)

val member : Stored_tree.t -> clade_of:int list -> int -> bool
(** Is a node inside the minimal spanning clade? One LCA plus one
    ancestor check. *)

val nodes : ?limit:int -> Stored_tree.t -> int list -> int list
(** All node ids of the clade (internal nodes included), preorder, capped
    by [limit] (default 10_000): the id range
    [\[lca, min (subtree_end lca) (lca + limit - 1)\]], with no row reads
    beyond the LCA. *)

val subtree : ?limit:int -> Stored_tree.t -> int list -> Crimson_tree.Tree.t
(** Materialise the minimal spanning clade as an in-memory tree (names
    and branch lengths preserved; the clade root's incoming edge is
    dropped), streaming the clade's id range past the view cache.
    Raises [Invalid_argument], before reading the range, when the clade
    exceeds [limit] nodes (default 100_000) — spanning clades of a huge
    tree can be the whole tree. *)
