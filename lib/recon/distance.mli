(** Evolutionary distance matrices from aligned sequences.

    Inputs are (taxon name, sequence) pairs of equal length; distances
    feed UPGMA and neighbor joining. Corrections invert the expected
    saturation of observed differences under the corresponding model.

    The sequence models are symmetric, so they compute each unordered
    pair once. Each validated sequence is packed once into two bit
    planes, 62 sites per int, with A=00, C=01, G=10 and T=11 in either
    case. The low plane is 0 exactly at the purines, so for a pair the
    differing sites are [popcount ((lo xor) lor (hi xor))] and the
    transversions [popcount (lo xor)], a word of 62 sites at a time.
    Those are the same two integer counts a site-by-site comparison
    finds, and each model still sees the same two integer-over-length
    fractions, so every matrix is bit-identical to one computed a
    character at a time. *)

type t = {
  names : string array;
  d : float array array;  (** Symmetric, zero diagonal. *)
}

exception Invalid_input of string

val of_fun : names:string array -> (int -> int -> float) -> t
(** Build from a function (symmetrised, diagonal forced to zero). *)

val p_distance : (string * string) list -> t
(** Fraction of differing sites per pair. Raises {!Invalid_input} on
    fewer than 2 taxa, length mismatch, duplicate names, or non-ACGT
    characters. *)

val jc69 : (string * string) list -> t
(** Jukes–Cantor correction [-3/4 ln(1 - 4p/3)]; saturated pairs
    (p >= 3/4) get a large finite ceiling. *)

val k2p : (string * string) list -> t
(** Kimura two-parameter correction from transition and transversion
    fractions, with the same saturation ceiling. *)

val of_tree : Crimson_tree.Tree.t -> t
(** True additive distances (sum of branch lengths between leaves) — the
    noise-free input that lets NJ recover the topology exactly; used by
    tests and the benchmark's "perfect data" ablation. Leaves must be
    uniquely named. *)

val check_additive_fit : t -> Crimson_tree.Tree.t -> float
(** RMS difference between matrix entries and path lengths in the tree. *)

val size : t -> int
val get : t -> int -> int -> float
