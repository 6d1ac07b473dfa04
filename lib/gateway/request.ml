type format =
  | Json
  | Newick

type t =
  | Hello
  | Use of string
  | Seed of int
  | Query of string
  | Explain of string
  | Profile of string
  | Consensus of string
  | Support of string
  | Rfmatrix of string
  | Collstats of string
  | Top
  | Stats
  | Slowlog of int option
  | Metrics
  | Sleep of float
  | Quit
  | List_trees of { page : int; per_page : int }
  | Tree_info of string
  | Overview of { tree : string; depth : int }
  | Clade of { tree : string; species : string list }
  | Tree_query of { tree : string; text : string }
  | Consensus_view of { coll : string; threshold : float option }
  | Doc

(* The verb list HELLO advertises: every line-protocol verb a client may
   send (SLEEP is debug-gated and deliberately not advertised). *)
let wire_verbs =
  [
    "HELLO"; "USE"; "SEED"; "QUERY"; "EXPLAIN"; "PROFILE"; "CONSENSUS"; "SUPPORT";
    "RFMATRIX"; "COLLSTATS"; "TOP"; "STATS"; "SLOWLOG"; "METRICS"; "QUIT";
  ]
