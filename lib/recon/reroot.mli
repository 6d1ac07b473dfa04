(** Re-rooting unrooted reconstructions.

    NJ output is unrooted; to compare against a rooted gold standard with
    clade-based metrics, or to display a dendrogram, the tree is rooted
    either at the midpoint of its longest leaf-to-leaf path (molecular
    clock assumption) or on the edge above a designated outgroup. *)

val midpoint : Crimson_tree.Tree.t -> Crimson_tree.Tree.t
(** Root at the midpoint of the tree diameter. Every leaf stays a leaf:
    when the midpoint falls on a leaf (as on a tree whose diameter is 0)
    the root goes on that leaf's edge. Raises [Invalid_argument] on trees
    with fewer than 2 leaves. *)

val at_outgroup : Crimson_tree.Tree.t -> outgroup:string -> Crimson_tree.Tree.t
(** Root on the edge leading to the named leaf, splitting that edge in
    half. Raises [Not_found] when no leaf carries the name. *)
