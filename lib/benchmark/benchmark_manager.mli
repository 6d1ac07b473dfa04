(** The Benchmark Manager (paper §2.2, Figure 3): characterise and
    evaluate tree inference algorithms against the gold-standard
    simulation tree.

    Per replicate the pipeline is: sample species from the stored tree
    (uniformly, with respect to an evolutionary time, or by name) →
    project the true induced tree → obtain sequences for the sample
    (stored species data when present, otherwise simulated on the
    projection, which is stochastically identical to simulating on the
    full tree and restricting) → run each algorithm → score its output
    against the projected truth. *)

module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree

type sample_method =
  | Uniform
  | With_time of float
  | Named of string list

type algorithm = {
  algo_name : string;
  infer : (string * string) list -> Crimson_tree.Tree.t;
      (** From (taxon, sequence) pairs to an estimated tree. *)
}

(** Stock algorithms. *)

val nj_jc : algorithm
val nj_k2p : algorithm
val nj_p : algorithm
(** NJ on uncorrected p-distances — a deliberately weaker variant for
    the correction ablation. *)

val bionj_jc : algorithm
(** Variance-weighted NJ (BIONJ). *)

val upgma_jc : algorithm
val parsimony : algorithm

type config = {
  sample_method : sample_method;
  sample_k : int;  (** Ignored for [Named]. *)
  sequence_length : int;
  model : Crimson_sim.Seqevo.model;
  site_rates : Crimson_sim.Seqevo.site_rates;
  algorithms : algorithm list;
  replicates : int;
  seed : int;
  record_history : bool;  (** Log runs into the Query Repository. *)
}

val default_config : config
(** Uniform sampling, k=20, 500 sites, JC69, uniform rates, default
    algorithms, 3 replicates, seed 42, history on. *)

type outcome = {
  algorithm : string;
  replicate : int;
  taxa : int;
  rf : int;  (** Unrooted Robinson–Foulds vs the projected truth. *)
  rf_normalized : float;
  triplet : float;  (** Triplet disagreement fraction. *)
  seconds : float;  (** Inference wall time. *)
}

exception Benchmark_error of string

val run : Repo.t -> Stored_tree.t -> config -> outcome list
(** Raises {!Benchmark_error} on unusable configurations (k below 3,
    empty algorithm list, unknown species names…). *)

type summary = {
  algorithm : string;
  runs : int;
  mean_rf_normalized : float;
  mean_triplet : float;
  mean_seconds : float;
}

val summarize : outcome list -> summary list
(** Per-algorithm means, sorted by accuracy (best first). *)

val report : summary list -> string
(** Rendered table. *)
