(** Neighbor joining (Saitou & Nei 1987).

    The workhorse distance method: statistically consistent on additive
    distances, O(n³). The result is an unrooted binary tree represented
    with a trifurcating root (the final three-way join); compare with
    {!Crimson_tree.Metrics.robinson_foulds_unrooted}, or root it first
    with {!Reroot}.

    The working distances live in one flat n×n float matrix indexed by
    active slot, 8n² bytes (0.5 MB at 250 taxa, 200 MB at 5,000). A join
    puts the new node in the first joined slot and moves the last slot
    into the second. Row sums, the Q scan and the reduction run in a
    fixed order, so equal inputs give bit-identical trees. *)

val reconstruct : Distance.t -> Crimson_tree.Tree.t
(** Raises [Invalid_argument] on matrices smaller than 2. Negative
    branch-length estimates are clamped to zero (standard practice). *)
