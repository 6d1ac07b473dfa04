(** Tree pattern match (paper §2.2).

    "Given an input pattern tree and a tree, determine whether or not the
    input tree pattern exists in the input tree": take the pattern's
    leaves, project the stored tree over them, and compare the projection
    with the pattern — equality for an exact match, a tree-distance
    measure for an approximate one. The paper's example: Figure 2 matches
    Figure 1, but swapping Bha and Lla in the pattern breaks the match. *)

exception Pattern_error of string

type result = {
  matched : bool;  (** Exact topological match (names, branching). *)
  weighted_match : bool;
      (** Match including merged edge weights (tolerance 1e-6). *)
  rf_distance : int;  (** Clade symmetric difference pattern vs projection. *)
  rf_normalized : float;
  projection : Crimson_tree.Tree.t;  (** The projected subtree compared against. *)
}

val match_pattern : Stored_tree.t -> Crimson_tree.Tree.t -> result
(** Raises {!Pattern_error} when the pattern has unnamed leaves, duplicate
    leaf names, or leaves not present in the stored tree. *)
