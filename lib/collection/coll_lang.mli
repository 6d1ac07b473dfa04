(** The collection query surface: bulk queries over a whole tree
    collection, in the same [fn(arg, …)] call syntax as
    {!Crimson_core.Query_lang}. Its functions are a second
    {!Crimson_core.Query_lang.table}, declared the same way and run
    through the same measured body: recorded in the same Query
    Repository, profiled with the same stages. {!help} lists them.

    Unlike tree queries these need no selected tree — only a repository.
    The worker fleet parses a query once and runs it here when {!table}
    declares its function name. *)

module Repo = Crimson_core.Repo

type outcome = Crimson_core.Query_lang.outcome = {
  text : string;
  result : string;
}

val table : Repo.t Crimson_core.Query_lang.table
(** [consensus], [support], [rfmatrix] and [collstats], under the span
    [coll.query]. A collection's errors are language errors. *)

val is_collection_query : string -> bool
(** Whether the text parses as a call to a function of {!table}. Never
    raises. *)

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

val help : string
(** The cheat sheet of {!table}, for [crimson collection --help]. *)
