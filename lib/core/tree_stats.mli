(** Statistics over a stored tree, computed in one table scan.

    Backs the CLI's [stats] command — the numbers a modeler checks after
    loading a gold standard (the paper quotes exactly these shapes:
    average depth above 1000, maximum depth over a million). *)

type t = {
  nodes : int;
  leaves : int;
  max_depth : int;
  mean_leaf_depth : float;
  max_out_degree : int;
  binary_fraction : float;  (** Internal nodes with exactly two children. *)
  max_root_distance : float;  (** Height in evolutionary time. *)
  mean_branch_length : float;
  max_branch_length : float;
  depth_histogram : (int * int) array;
      (** (depth bucket start, node count), bucketed by powers of two. *)
}

val compute : Stored_tree.t -> t
(** One streaming scan of the tree's node rows, past the view cache
    (see {!Stored_tree.scan}). *)

val to_string : t -> string
