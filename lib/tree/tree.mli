(** Rooted, weighted, node-labelled phylogenetic trees.

    Nodes are dense integer ids assigned in insertion order; the arena
    stores parent / first-child / next-sibling links in flat arrays so that
    trees with millions of nodes stay compact and traversals are
    allocation-free. Edge weights ([branch_length]) are the evolutionary
    time from a node's parent to the node, following the paper's Figure 1.
    Trees are immutable once built. *)

type node = int
(** Dense node id in [0, node_count). *)

type t

val nil : node
(** Sentinel (-1) used for "no node". *)

(** Incremental construction. Nodes may be added in any parent-first
    order; [finish] freezes the structure. *)
module Builder : sig
  type tree := t
  type t

  val create : ?capacity:int -> unit -> t

  val add_root : ?name:string -> t -> node
  (** Raises [Invalid_argument] when a root already exists. *)

  val add_child : ?name:string -> ?branch_length:float -> t -> parent:node -> node
  (** Appends a new last child of [parent]. Raises [Invalid_argument] when
      [parent] is not a node of the tree under construction or when
      [branch_length] is negative or not finite. *)

  val node_count : t -> int

  val finish : t -> tree
  (** Raises [Invalid_argument] when no root was added. Raises on a second
      call. *)
end

(** {1 Basic accessors} *)

val node_count : t -> int
val root : t -> node
val parent : t -> node -> node
(** [nil] for the root. *)

val children : t -> node -> node list
val out_degree : t -> node -> int
val is_leaf : t -> node -> bool
val name : t -> node -> string option
val branch_length : t -> node -> float
(** Weight of the edge from [parent t n] to [n]; [0.] for the root. *)

val mem : t -> node -> bool

(** {1 Derived structure} *)

val leaves : t -> node array
(** Leaves in preorder (left to right). *)

val leaf_count : t -> int
val depth : t -> node -> int
(** Edge count from the root. O(depth). *)

val depths : t -> int array
(** Depth of every node, computed in one pass. *)

val height : t -> int
(** Maximum depth over all nodes. *)

val root_distance : t -> float array
(** Sum of branch lengths from the root to each node. *)

val preorder : t -> node array
val postorder : t -> node array
val preorder_rank : t -> int array
(** [rank.(n)] is the position of node [n] in [preorder t]. *)

val subtree_sizes : t -> int array
(** Number of nodes (including self) in each node's subtree. *)

val iter_children : t -> node -> (node -> unit) -> unit

val find_by_name : t -> string -> node option
(** First node (in preorder) carrying the given name. O(n). *)

val leaf_by_name : t -> string -> node option
(** First leaf carrying the given name. O(n). *)

(** {1 Equality} *)

val equal_ordered : ?tolerance:float -> t -> t -> bool
(** Structural equality respecting child order, names and branch lengths
    (lengths compared within [tolerance], default [1e-9]). *)

val equal_unordered : ?tolerance:float -> ?weighted:bool -> t -> t -> bool
(** Isomorphism ignoring child order — the natural notion for phylogenies.
    Compares names everywhere they are present; branch lengths are compared
    (within [tolerance]) only when [weighted] is [true] (default). *)

(** {1 Statistics and debug} *)

type stats = {
  nodes : int;
  leaves : int;
  height : int;
  mean_leaf_depth : float;
  max_out_degree : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val validate : t -> (unit, string) result
(** Internal-consistency check (acyclic, single root, link agreement);
    used by tests and after deserialisation. *)
