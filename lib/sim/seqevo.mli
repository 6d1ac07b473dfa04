(** Bio-molecular sequence evolution along a tree (the paper's "the
    evolution of a bio-molecular sequence is simulated using the tree as
    a guide").

    DNA sequences evolve by a continuous-time reversible Markov model;
    each edge applies the transition matrix P(ν) = exp(Q·ν) where ν is
    the branch length in expected substitutions. Supported models, from
    the standard hierarchy: JC69, K2P, HKY85 and GTR, optionally with
    discrete-gamma rate heterogeneity across sites. *)

type model =
  | JC69  (** Equal rates, uniform base frequencies. *)
  | K2P of { kappa : float }  (** Transition/transversion ratio. *)
  | HKY85 of {
      kappa : float;
      pi : float array;  (** Base frequencies (A,C,G,T), summing to 1. *)
    }
  | GTR of {
      rates : float array;
          (** Six exchangeabilities: AC, AG, AT, CG, CT, GT. *)
      pi : float array;
    }

exception Invalid_model of string

val rate_matrix : model -> Matrix4.t
(** The normalised generator Q (expected one substitution per unit
    time at stationarity). Raises {!Invalid_model} on bad frequencies or
    rates. *)

val transition_matrix : model -> float -> Matrix4.t
(** [transition_matrix m t] = exp(Q t). Raises [Invalid_argument] on
    negative [t]. *)

val stationary : model -> float array

val index_of_base : char -> int
(** Raises [Invalid_argument] for non-ACGT characters. *)

type site_rates =
  | Uniform
  | Gamma of {
      alpha : float;
      categories : int;  (** Discrete-gamma bins, typically 4. *)
    }

val evolve :
  rng:Crimson_util.Prng.t ->
  model:model ->
  ?site_rates:site_rates ->
  ?root_sequence:string ->
  length:int ->
  Crimson_tree.Tree.t ->
  (string * string) list
(** Simulate down the tree: the root sequence is drawn from the
    stationary distribution unless given, every edge applies the model,
    and the result maps each named leaf to its sequence. [length] is
    ignored when [root_sequence] is supplied. Raises [Invalid_argument]
    on non-positive length or a root sequence with non-ACGT characters. *)

val gamma_rates : rng:Crimson_util.Prng.t -> alpha:float -> categories:int -> int -> float array
(** Per-site rate multipliers under the discrete-gamma model (mean 1),
    exposed for tests. *)
