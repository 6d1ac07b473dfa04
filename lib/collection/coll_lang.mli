(** The collection query surface: bulk queries over a whole tree
    collection, in the same [fn(arg, …)] call syntax as
    {!Crimson_core.Query_lang} — parsed with the shared
    {!Crimson_core.Query_lang.Call} parser, recorded in the same Query
    Repository, profiled with the same stages machinery.

    {v
    consensus(boot)            majority-rule consensus, as Newick
    consensus(boot, 0.8)       keep clades with support > 0.8
    consensus(boot, 1.0)       strict consensus
    support(boot)              per-bipartition occurrence counts
    rfmatrix(boot)             pairwise Robinson–Foulds matrix
    collstats(boot)            dictionary / storage statistics
    v}

    Unlike tree queries these need no selected tree — only a repository.
    The worker fleet routes a query here when {!is_collection_query}
    says so, and falls back to the per-tree language otherwise. *)

module Repo = Crimson_core.Repo

type outcome = Crimson_core.Query_lang.outcome = {
  text : string;
  result : string;
}

val is_collection_query : string -> bool
(** Whether the text parses as a call to one of the collection verbs
    ([consensus], [support], [rfmatrix], [collstats]). Never raises. *)

val run : ?record:bool -> Repo.t -> string -> (outcome, string) result
(** Parse and execute one collection query. [record] (default true)
    appends to the Query Repository — on a read-only repository that
    refusal surfaces as [Error], like every mutating path. Never raises
    on any input bytes (same contract as {!Crimson_core.Query_lang.run}). *)

val explain : Repo.t -> string -> (string list, string) result
(** Describe the plan — access paths over the bipartition dictionary,
    dictionary and member counts of the named collection — without
    executing. Nothing is recorded. *)

val profile :
  ?record:bool ->
  Repo.t ->
  string ->
  (outcome * Crimson_obs.Profile.report, string) result
(** Like {!run} under a {!Crimson_obs.Profile}; collection stages
    ("dict_scan", "consensus_build", "decode_members", "rf_matrix", …)
    appear in the report. *)

val measured :
  profiled:bool ->
  ?record:bool ->
  Repo.t ->
  string ->
  (outcome * float * int * Crimson_obs.Profile.report option, string) result
(** The one body {!run} and {!profile} share, as
    {!Crimson_core.Query_lang.measured}. *)

val help : string
