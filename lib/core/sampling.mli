(** Sampling queries over the gold-standard tree (paper §2.2).

    The Benchmark Manager samples species subsets because reconstruction
    algorithms cannot handle the full simulation tree. Two methods from
    the paper plus explicit user input:

    - {!uniform}: k distinct leaves, uniformly at random;
    - {!with_time}: "sampling a set of species with respect to a given
      time" — find the frontier of minimal nodes whose evolutionary
      distance from the root exceeds [time], then draw the k species as
      evenly as possible across the frontier subtrees;
    - user input is just {!Stored_tree.leaf_ids_by_names}. *)

exception Invalid_sample of string

val uniform : Stored_tree.t -> rng:Crimson_util.Prng.t -> k:int -> int list
(** [k] distinct leaf node ids, one {!Stored_tree.leaf_by_ordinal} each.
    Raises {!Invalid_sample} when [k <= 0] or [k] exceeds the leaf
    count. *)

val frontier_at : Stored_tree.t -> time:float -> int list
(** Minimal (closest-to-root) nodes whose root distance strictly exceeds
    [time], in preorder — the paper's example yields [{Bha, x, Syn, Bsu}]
    at time 1 on Figure 1. One preorder skip-scan of the node rows past
    the view cache: it reads the cap above the frontier and the frontier
    rows, and jumps over each frontier node's subtree. The handle keeps
    the last frontier it scanned ({!Stored_tree.frontier}), so a repeated
    time reads no row. Raises {!Invalid_sample}, before any read, on a
    negative or non-finite [time]. *)

val with_time :
  Stored_tree.t -> rng:Crimson_util.Prng.t -> k:int -> time:float -> int list
(** Distribute [k] across the frontier subtrees as evenly as possible
    (paper: "for each node, we randomly select k/|F| leaves from the
    subtree rooted by the node"), sampling without replacement inside
    each subtree via leaf-ordinal intervals. Subtrees smaller than their
    quota contribute all their leaves; leftover demand spills to the
    other subtrees. The frontier comes from the handle as in
    {!frontier_at}; each draw is one {!Stored_tree.leaf_by_ordinal}.
    Raises {!Invalid_sample} when [k] is not positive,
    exceeds the leaf count, exceeds the leaves below the frontier, or the
    frontier is empty, and for the times {!frontier_at} refuses. *)
