(** Transport-agnostic requests.

    One typed request variant per verb, whichever front end it arrived
    on: the line protocol parses into these through {!wire_table} (see
    [Crimson_server.Wire]), and the HTTP router maps resource paths onto
    the same type — so the worker fleet implements every verb exactly
    once.

    The wire verbs carry their payloads verbatim, except the collection
    verbs (CONSENSUS, SUPPORT, RFMATRIX, COLLSTATS), which parse into a
    {!Query} of the call text; the resource-style variants
    ([List_trees] onward) are produced only by the HTTP router. *)

type format =
  | Json  (** The default reply rendering. *)
  | Newick  (** Plain-text Newick, where a request has a tree-shaped answer. *)

type t =
  | Hello
  | Use of string
  | Seed of int
  | Query of string
  | Explain of string
  | Profile of string
  | Top
  | Stats
  | Slowlog of int option
  | Metrics
  | Sleep of float  (** Debug fault injection; gated by server config. *)
  | Quit
  | List_trees of { page : int; per_page : int }
  | Tree_info of string  (** Tree name, or numeric id. *)
  | Overview of { tree : string; depth : int }
  | Clade of { tree : string; species : string list }
  | Tree_query of { tree : string; text : string }
  | Consensus_view of { coll : string; threshold : float option }
  | Doc

type wire_verb = {
  verb : string;  (** Upper case; the wire matches it case-insensitively. *)
  parse : string -> (t, string) result;
      (** The payload (the trimmed text after the verb) to a request, or
          the [Bad_request] message. *)
  advertised : bool;  (** Listed by HELLO; false only for SLEEP. *)
}

val wire_table : wire_verb list
(** Every line-protocol verb, the one list the wire parser, HELLO's
    inventory and the unknown-command hint read. *)

val wire_verbs : string list
(** The advertised verbs of {!wire_table}, in its order. *)
