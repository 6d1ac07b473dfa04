(** Hierarchical (layered) Dewey labeling — the paper's core contribution.

    A phylogenetic tree is decomposed into subtrees of bounded depth [f]:
    a node at depth [d] belongs to the subtree rooted at its ancestor at
    depth [f * (d / f)], so every subtree spans at most [f] levels and
    every local Dewey label has fewer than [f] components. "Layer 0" is
    this set of subtrees over the original nodes. Layer 1 has one node per
    layer-0 subtree, with the parent relation induced by subtree
    containment of subtree-root parents; layer 1 is decomposed again, and
    so on until a layer consists of a single subtree. The node a subtree's
    root was split off from (its parent in the layer below) is the
    subtree's {e source node}, the dotted edge of the paper's Figure 4.

    Least common ancestor works as in §2.1 of the paper: nodes in the same
    subtree take the longest common prefix of their local labels; nodes in
    different subtrees recurse one layer up, find the subtree [l'] that
    must contain the answer, enter it through source nodes, and finish
    with a local LCA. Every operation costs O(f) per layer and there are
    O(log_f depth) layers.

    Edge numbering within local labels follows the {e original} child
    order of the layer tree, including children that were split off into
    other subtrees; a split-off child's reserved index is recoverable as
    the [edge_index] of its subtree's root. This makes preorder
    comparison exact across subtree boundaries. *)

(** Storage abstraction: the algorithms only need these per-layer
    accessors, so the same engine runs over in-memory arrays (this module)
    and over Crimson's relational repository (crimson_core). Nodes of a
    layer are dense ints; [sub] ids of layer [k] are exactly the node ids
    of layer [k+1]. *)
module type STORE = sig
  type t

  val layer_count : t -> int
  (** At least 1; the top layer forms a single subtree. *)

  val parent : t -> layer:int -> int -> int
  (** Parent within the layer's (full) tree; [-1] for the layer root. *)

  val edge_index : t -> layer:int -> int -> int
  (** 1-based index among the parent's children; 0 for the layer root. *)

  val sub : t -> layer:int -> int -> int
  (** Id of the bounded-depth subtree containing the node. *)

  val local_depth : t -> layer:int -> int -> int
  (** Depth within the containing subtree, in [0, f). *)

  val sub_root : t -> layer:int -> int -> int
  (** Root node (same layer) of the given subtree id. *)
end

(** Query algorithms over any {!STORE}. All node arguments refer to layer
    0 (the original tree) unless stated otherwise. *)
module Engine (S : STORE) : sig
  val lca : S.t -> int -> int -> int
  (** Least common ancestor. *)

  val is_ancestor_or_self : S.t -> ancestor:int -> int -> bool

  val child_toward : S.t -> ancestor:int -> int -> int
  (** [child_toward s ~ancestor x] is the child of [ancestor] on the path
      down to [x]. Requires [ancestor] to be a proper ancestor of [x];
      raises [Invalid_argument] otherwise. *)

  val edge_toward : S.t -> ancestor:int -> int -> int
  (** Original-tree edge index (1-based) of {!child_toward}. *)

  val compare_preorder : S.t -> int -> int -> int
  (** Document order: ancestors before descendants, siblings by edge
      index. A total order identical to preorder rank. *)
end

(** {1 In-memory index} *)

type t
(** Layered index over a {!Crimson_tree.Tree.t}, nodes shared with it. *)

val build : ?f:int -> Crimson_tree.Tree.t -> t
(** Construct the index. [f >= 2] (default 8) is the depth bound. Raises
    [Invalid_argument] when [f < 2]. *)

val f : t -> int
val layer_count : t -> int
val node_count : t -> int

val subtree_count : t -> layer:int -> int
(** Number of bounded-depth subtrees in the given layer. *)

val lca : t -> int -> int -> int
val is_ancestor_or_self : t -> ancestor:int -> int -> bool
val child_toward : t -> ancestor:int -> int -> int
val edge_toward : t -> ancestor:int -> int -> int
val compare_preorder : t -> int -> int -> int
val depth : t -> int -> int

(** {1 Labels as data} *)

val label : t -> int -> int array list
(** Hierarchical label of a layer-0 node: one local-Dewey segment per
    layer, topmost layer first. The flat Dewey label is the concatenation
    of, per layer top-down, each segment joined by the [edge_index] of the
    next subtree root — see {!flat_label}. *)

val flat_label : t -> int -> Dewey.t
(** Reconstructed flat Dewey label (for validation; costs O(depth)). *)

val label_to_string : int array list -> string
(** ["2.1|3.4"] — segments separated by ['|']. *)

type stats = {
  f : int;
  layers : int;
  nodes : int;
  subtrees_per_layer : int array;
  total_label_bytes : int;
  mean_label_bytes : float;
  max_label_bytes : int;
}

val stats : t -> stats

(** {1 Access to raw structure (persistence, tests)} *)

val layer_node_count : t -> layer:int -> int
val raw_parent : t -> layer:int -> int -> int
val raw_edge_index : t -> layer:int -> int -> int
val raw_sub : t -> layer:int -> int -> int
val raw_local_depth : t -> layer:int -> int -> int
val raw_sub_root : t -> layer:int -> int -> int

val source : t -> layer:int -> int -> int
(** Source node of a subtree: parent (same layer) of its root, [-1] for
    the top subtree — the dotted edge of Figure 4. *)

val validate : t -> Crimson_tree.Tree.t -> (unit, string) result
(** Check the index against the tree it was built from: parent/edge
    agreement, bounded local depths, subtree membership consistency. *)
