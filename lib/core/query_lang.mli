(** A small textual query language over a stored tree.

    The paper's GUI offers a query wizard and a Python scripting
    interface; this module is the equivalent surface for the CLI and for
    programmatic use. Queries are function-call expressions over species
    names:

    {v
    lca(Lla, Spy)              least common ancestor
    clade(Lla, Syn)            minimal spanning clade
    distance(Bha, Syn)         path length between two species
    path(Lla, Bsu)             node path between two species
    depth(Spy)                 node depth
    parent(Spy)  children(x)   navigation
    project(Bha, Lla, Syn)     induced subtree, as Newick
    sample(4)                  uniform random sample
    sample(4, 1.0)             sample w.r.t. evolutionary time 1.0
    frontier(1.0)              the minimal nodes beyond time 1.0
    match('(Bha,(Lla,Syn));')  tree pattern match
    seq(Bha)                   stored sequence (preview)
    info()                     tree metadata
    v}

    Names may be bare (letters, digits, [_-.]) or single-quoted. Every
    successful query is recorded in the Query Repository. *)

type outcome = {
  text : string;  (** The normalised query text. *)
  result : string;  (** Human-readable result. *)
}

(** The shared [fn(arg, …)] call syntax. The collection query surface
    ([Crimson_collection.Coll_lang]) parses the same texts, so the
    parser is exported here instead of duplicated. *)
module Call : sig
  type arg =
    | Name of string  (** Bare or single-quoted word. *)
    | Number of float

  type t = {
    fn : string;  (** Lowercased function name. *)
    args : arg list;
  }

  val parse : string -> (t, string) result
  (** Parse one call expression; never raises. *)
end

val run :
  ?rng:Crimson_util.Prng.t ->
  ?record:bool ->
  Repo.t ->
  Stored_tree.t ->
  string ->
  (outcome, string) result
(** Parse and execute one query. [rng] (default seed 0) feeds the
    sampling functions; [record] (default true) appends to the history.
    Returns [Error message] on parse or execution failure — never raises
    on any input bytes (the query service feeds it untrusted network
    input), with the sole exception of [Out_of_memory], which stays
    fatal. *)

val explain : Stored_tree.t -> string -> (string list, string) result
(** Parse one query and describe its plan — resolution steps, access
    paths, complexity in terms of the tree's layer decomposition —
    without executing it. Same arity checks and error messages as
    {!run}; nothing is recorded in the history. *)

val profile :
  ?rng:Crimson_util.Prng.t ->
  ?record:bool ->
  Repo.t ->
  Stored_tree.t ->
  string ->
  (outcome * Crimson_obs.Profile.report, string) result
(** Like {!run}, but executes under a {!Crimson_obs.Profile} with
    "parse" and "execute" stages and returns the cost report alongside
    the outcome. When [record] is set the history row's [cost] column
    carries the report totals as compact JSON. *)

val measured :
  profiled:bool ->
  ?rng:Crimson_util.Prng.t ->
  ?record:bool ->
  Repo.t ->
  Stored_tree.t ->
  string ->
  (outcome * float * int * Crimson_obs.Profile.report option, string) result
(** The one body {!run} and {!profile} share: [(outcome, elapsed_ms,
    pages, report)], the execution measured once (as the history row
    records it), with the cost report when [profiled]. *)

val help : string
(** The cheat sheet above, for the CLI. *)
