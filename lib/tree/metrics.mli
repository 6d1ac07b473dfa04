(** Tree-comparison metrics.

    Used by the paper's tree pattern match ("compute the difference
    between them as a measure of similarity", §2.2) and by the Benchmark
    Manager to score reconstructed trees against the projected truth.
    Trees are compared by the {e names} of their leaves; both trees must
    be leaf-labelled.

    {b Ordinals.} Once the leaf names are checked, a comparison numbers
    each leaf by its {e ordinal}, the position of its name in the sorted
    name set, and works on ordinals alone. Clades and splits are bitmaps
    over ordinals, built for every internal node in one postorder pass
    that ORs each child's row into its parent's a 64-bit word at a time,
    and compared as byte strings in a hash table. Leaf-pair LCAs come in
    O(1) from a sparse table over the LCAs of preorder-adjacent leaves.
    With [n] leaves and [N] nodes, the name checks cost O(n log n) and
    each tree's bitmaps O(N n / 64); the LCA index costs O(N + n log n)
    and then O(1) per pair. Every result is bit-identical to comparing
    sorted name lists and walking parent pointers. *)

exception Incomparable of string
(** Raised when the trees' leaf-name sets differ, a leaf is unnamed, or a
    name repeats. *)

val clades : Tree.t -> string list list
(** For every internal node except the root: the sorted leaf names below
    it. This is the rooted analogue of the bipartition set. Trees here
    are rooted (phylogenies in Crimson are), so metrics are clade-based. *)

val clade_bitmaps : Tree.t -> leaves:int -> ordinal:(Tree.node -> int) -> string list
(** [clade_bitmaps t ~leaves ~ordinal] is the distinct clades of
    {!clades} as bitmaps, in no particular order: [(leaves + 7) / 8]
    bytes each, with ordinal [i] at bit [i mod 8] of byte [i / 8].
    [ordinal] numbers the leaves: it is called once per leaf, in
    postorder, and must return a distinct value in [\[0, leaves)]; an
    exception it raises aborts the build. The collection store keeps
    clades in this format. *)

val robinson_foulds : Tree.t -> Tree.t -> int
(** Symmetric difference of the clade sets — the (rooted) Robinson–Foulds
    distance. 0 iff the trees have the same branching structure over the
    same leaves. Raises {!Incomparable}. *)

val robinson_foulds_normalized : Tree.t -> Tree.t -> float
(** RF divided by the total clade count of both trees; in [0, 1]. When
    neither tree has a non-root internal node the distance is 0. *)

val shared_clades : Tree.t -> Tree.t -> int

val splits : Tree.t -> string list list
(** Non-trivial {e unrooted} splits: for every internal edge, the leaf
    names on the side not containing the lexicographically smallest leaf
    (ordinal 0), excluding splits that separate fewer than two leaves.
    Rooting and root degree do not affect the result. *)

val robinson_foulds_unrooted : Tree.t -> Tree.t -> int
(** Symmetric difference of the unrooted split sets — the classic RF
    distance. Use this when one tree comes from an algorithm with
    arbitrary rooting (e.g. neighbor joining). *)

val robinson_foulds_unrooted_normalized : Tree.t -> Tree.t -> float
(** Unrooted RF divided by the total split count of both trees; 0 when
    neither has a split. Each RF call builds each tree's bitmaps once. *)

val robinson_foulds_unrooted_scores : Tree.t -> Tree.t -> int * float
(** [(robinson_foulds_unrooted a b, robinson_foulds_unrooted_normalized
    a b)] from one comparison: each tree's split bitmaps are built once
    for both numbers. *)

val triplet_distance :
  ?samples:int -> rng:Crimson_util.Prng.t -> Tree.t -> Tree.t -> float
(** Fraction of leaf triplets on which the two rooted trees disagree.
    With at most 25 leaves every triplet is checked and [rng] is left
    untouched. With more, the estimate uses [samples] (default 2000)
    triplets, each drawn as [Prng.sample_without_replacement rng ~k:3 ~n]
    over the ordinals, so the draws and [rng]'s state afterwards depend
    only on [n], [samples] and [rng]. Each triplet costs six O(1) LCA
    lookups. *)

val branch_score_distance : Tree.t -> Tree.t -> float
(** Kuhner–Felsenstein branch score: the L2 distance between the trees'
    clade→branch-length maps (clades absent from one tree contribute
    their full length). 0 iff topologies and internal branch lengths
    agree. Leaf edges are included, keyed by leaf name. *)

val path_length_distance : Tree.t -> Tree.t -> float
(** Root-mean-square difference of leaf-pair path lengths (branch-length
    aware), estimated over all pairs, in ordinal order, for <= 200 leaves
    and a fixed-seed subsample of 20,000 pairs otherwise. *)
