(** A small textual query language over a stored tree.

    The paper's GUI offers a query wizard and a Python scripting
    interface; this module is the equivalent surface for the CLI and for
    programmatic use. Queries are function-call expressions over species
    names, such as [lca(Lla, Spy)]; {!help} lists every function. Names
    may be bare (letters, digits, [_-.#]) or single-quoted. Every
    successful query is recorded in the Query Repository.

    Each function is declared once, in a {!table}: its name, arity,
    usage error, help lines, how it runs and how EXPLAIN plans it. The
    collection functions ([Crimson_collection.Coll_lang]) are a second
    table of the same kind, run through the same measured body. *)

type outcome = {
  text : string;  (** The normalised query text. *)
  result : string;  (** Human-readable result. *)
}

(** {1 The [fn(arg, …)] call syntax} *)

type arg =
  | Name of string  (** Bare or single-quoted word. *)
  | Number of float

type call = {
  fn : string;  (** Lowercased function name. *)
  args : arg list;
}

val parse : string -> (call, string) result
(** Parse one call expression; never raises. *)

(** {1 Declarations} *)

exception Bad_query of string
(** A language error: unknown function, wrong arity, bad argument. *)

type 'env fn = {
  name : string;
  arity : int * int;  (** Fewest and most arguments. *)
  usage : string;  (** The error for any other argument count. *)
  help : (string * string) list;  (** Cheat-sheet lines: example call, meaning. *)
  run : 'env -> arg list -> string;
  plan : 'env -> arg list -> string list;  (** EXPLAIN's lines. *)
}
(** One query function over an environment ['env]; it may raise
    {!Bad_query}. *)

type 'env table = {
  span : string;  (** The span every query of the table runs under. *)
  unknown : string -> string;  (** The error for a name not in [fns]. *)
  fns : 'env fn list;
}

val mem : 'env table -> string -> bool
val cheat_sheet : 'env table -> string

type on_tree = { stored : Stored_tree.t; rng : Crimson_util.Prng.t }

val table : on_tree table
(** The tree functions, under the span [core.query]; [rng] feeds the
    sampling functions. *)

val measured_in :
  'env table ->
  'env ->
  profiled:bool ->
  ?record:bool ->
  Repo.t ->
  text:string ->
  call ->
  (outcome * float * int * Crimson_obs.Profile.report option, string) result
(** The one body every query runs through, under the table's span: the
    "parse" stage resolves the call against its declaration (lookup and
    arity check), the "execute" stage runs it. Returns [(outcome,
    elapsed_ms, pages, report)], measured once as the history row
    records it, with the cost report when [profiled]; [record] (default
    true) appends [text] and the result to the history. Never raises,
    but for [Out_of_memory] and a request deadline's expiry. *)

val explain_in : 'env table -> 'env -> call -> (string list, string) result
(** The call's plan, after the same lookup and arity check. *)

(** {1 Tree queries} *)

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
(** {!measured_in} over {!table}, for a query text. *)

val help : string
(** The cheat sheet of {!table}, for the CLI. *)
