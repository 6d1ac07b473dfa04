(** Handle to a tree persisted in the Tree Repository.

    Node ids are the dense preorder ids assigned at load time. Every
    accessor resolves through the handle's {!Node_view} cache: a node's
    row is fetched once, then further
    field reads are in-memory record accesses — no full mirror of the
    tree is kept, per the paper's design point that simulation trees
    exceed main memory while individual queries touch few pages.

    LCA runs the {!Crimson_label.Layered.Engine} algorithm over the
    stored layered labels (the paper's §2.1 index). Preorder order and
    ancestry need no label walk, because of one invariant: stored node
    ids are dense preorder ranks [0 .. node_count - 1]. The loader
    renumbers every tree that way and [Loader.fetch_tree] asserts it.
    So every subtree is the id range [\[n, subtree_end n\]], stored in
    each node row: {!compare_preorder} is integer order on ids,
    {!is_ancestor_or_self} is [a <= x <= subtree_end a], {!is_leaf} is
    [subtree_end n = n], and {!children} is arithmetic. The same
    invariant lets {!scan} skip whole subtrees and lets {!Projection}
    sort leaves as integers.

    Rows are located by id, and nodes by name, through the directory of
    the clustered tables, each group read on the handle's first access
    that needs it, so {!open_id} and {!open_name} cost one catalog read. Beside its views, a handle keeps
    the leaf map of each run it has resolved an ordinal in (all of them
    on a handle the loader returns) and the last time-sampling frontier
    it scanned ({!frontier}). *)

type t

exception Unknown_tree of string
exception Unknown_node of int

val open_id : ?cache_capacity:int -> Repo.t -> int -> t
(** Raises {!Unknown_tree}. [cache_capacity] bounds the handle's
    resident node views (default {!Node_view.default_capacity}). *)

val open_name : ?cache_capacity:int -> Repo.t -> string -> t
(** Raises {!Unknown_tree}. *)

val list_all : Repo.t -> (int * string) list
(** (id, name) of every stored tree. *)

(** {1 Metadata} *)

val repo : t -> Repo.t
val id : t -> int
val name : t -> string
val f : t -> int
val layer_count : t -> int
val node_count : t -> int
val leaf_count : t -> int
val root : t -> int
(** Always node 0 (preorder ids). *)

(** {1 Node accessors (disk-backed, view-cached)} *)

val view : t -> int -> Node_view.t
(** The node's decoded view — the one fetch the other accessors are
    sugar over. Use it directly when reading several fields of the same
    node. Raises {!Unknown_node}. *)

val cache_resident : t -> int
(** How many views this handle's cache holds. *)

val invalidate_cache : t -> unit
(** Drop the handle's cached views (see {!Node_view.invalidate}) and the
    frontier it keeps (see {!frontier}). *)

val parent : t -> int -> int
(** [-1] for the root. Raises {!Unknown_node}. *)

val edge_index : t -> int -> int
val node_name : t -> int -> string option
val branch_length : t -> int -> float
val root_distance : t -> int -> float
val children : t -> int -> int list
(** In edge order: the first child is [node + 1] when the node is
    internal, each next sibling [subtree_end c + 1]. One node view per
    child plus one for the node. *)

val subtree_end : t -> int -> int
(** The last preorder id in the node's subtree ([node] for a leaf). *)

val is_leaf : t -> int -> bool
(** [subtree_end node = node]: one node view. *)

val leaf_interval : t -> int -> int * int
(** [(lo, hi)]: the half-open interval of leaf ordinals under the node. *)

val leaf_by_ordinal : t -> int -> int
(** Node id of the leaf with the given preorder ordinal, found through
    the run directory and its leaf maps with no index (see
    {!Node_view.leaf_by_ordinal}). Raises {!Unknown_node} when out of
    range. *)

val frontier : t -> time:float -> Node_view.t list
(** The views of the minimal nodes whose root distance strictly exceeds
    [time], in preorder: one {!scan} from the root that reads the cap
    above the frontier and the frontier rows, and jumps over each
    frontier node's subtree. The handle keeps the last frontier it
    scanned, keyed by the exact time, so a second call at that time
    reads nothing. It keeps one only after the scan completes, and only
    if it holds at most {!Node_view.capacity} views; {!invalidate_cache}
    drops it. [time] is not checked here ({!Sampling.frontier_at}
    refuses negative and non-finite times). *)

val scan : t -> lo:int -> hi:int -> (Node_view.t -> int) -> unit
(** Stream the views of ids [lo .. hi] in preorder, past the view cache;
    the callback returns the next id wanted, so returning
    [v.subtree_end + 1] skips [v]'s subtree. See {!Node_view.scan}. *)

val prime :
  t ->
  Crimson_storage.Clustered.group ->
  names:Name_run.t ->
  subtree_end:int array ->
  (int -> Node_view.t) ->
  unit
(** Hand the handle the tree's [nodes] group and its leaf maps, and its
    name run, and admit views of the lowest ids to its cache, up to its
    capacity, without storage reads (see {!Node_view.prime}). *)

val group :
  t -> (Repo.t -> Crimson_storage.Table.t) -> layer:int -> Crimson_storage.Clustered.group
(** The handle's (tree, layer) group of a clustered table other than
    [nodes], kept after its first read (see {!Node_view.group}). *)

val node_by_name : t -> string -> int option
(** The lowest id carrying the name, found through the tree's name run
    (see {!Name_run}): a search of its directory, read on the handle's
    first lookup, then at most one page pin. [None] for [""] without a
    read: unnamed nodes have no entry. *)

val leaf_ids_by_names : t -> string list -> (int list, string) result
(** Resolve leaf names; [Error name] on the first unknown or non-leaf
    name. *)

(** {1 Structure queries (the paper's §2.1 index)} *)

val lca : t -> int -> int -> int
val lca_set : t -> int list -> int
(** Raises [Invalid_argument] on the empty list. *)

val is_ancestor_or_self : t -> ancestor:int -> int -> bool
(** [ancestor <= n <= subtree_end ancestor]: one cached view. Raises
    {!Unknown_node} when either id is outside the tree. *)

val compare_preorder : t -> int -> int -> int
(** [Int.compare] on the ids, which are preorder ranks. Raises
    {!Unknown_node} for an id outside [\[0, node_count)]. *)

val depth : t -> int -> int

val path_distance : t -> int -> int -> float
(** Evolutionary distance between two nodes: sum of branch lengths along
    the path through their LCA, computed from stored cumulative root
    distances in one LCA query. *)

val path_nodes : t -> int -> int -> int list
(** The nodes on the path from the first node to the second (inclusive),
    through their LCA. Costs O(path length) row fetches. *)
