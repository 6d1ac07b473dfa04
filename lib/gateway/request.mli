(** Transport-agnostic requests.

    One typed request variant per verb, whichever front end it arrived
    on: the line protocol parses into these (see [Crimson_server.Wire]),
    and the HTTP router maps resource paths onto the same type — so the
    worker fleet implements every verb exactly once.

    The wire-only verbs carry their historical payloads verbatim; the
    resource-style variants ([List_trees] onward) are produced only by
    the HTTP router. *)

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
  | Consensus of string  (** Payload ["<collection> [threshold]"]. *)
  | Support of string
  | Rfmatrix of string
  | Collstats of string
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

val wire_verbs : string list
(** The verbs HELLO advertises, in canonical order. *)
