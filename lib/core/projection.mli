(** Tree projection (paper §1 and §2.2).

    Given leaves S of stored tree T, the projection is the subtree of T
    induced by S: every edge is a subpath of a root-to-S path, unary
    nodes are merged with their child summing the edge weights, and the
    result is rooted at the LCA of S. Stored node ids are dense preorder
    ranks (see {!Stored_tree}), so the leaves are sorted and validated
    as integers. The projection node set is S plus the layered-index
    LCAs of the k-1 preorder-adjacent leaf pairs, and parent edges fall
    out of a single ancestor-stack sweep whose ancestry tests read two
    cached node views each. Edge weights come from stored cumulative
    root distances, so no path walking is needed. *)

exception Projection_error of string

val project : Stored_tree.t -> int list -> Crimson_tree.Tree.t
(** Projection over the given leaf node ids. Node names and merged edge
    weights are preserved; the result is an in-memory tree (projections
    are small — that is why they exist). Raises {!Projection_error} on an
    empty set, duplicate ids, or ids that are not leaves. *)

val project_names : Stored_tree.t -> string list -> Crimson_tree.Tree.t
(** Convenience: resolve leaf names first. Raises {!Projection_error} on
    unknown names. *)

