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

(* ---------------------------- Wire verbs ---------------------------- *)

type wire_verb = {
  verb : string;
  parse : string -> (t, string) result;
  advertised : bool;
}

(* Each payload parser is given its verb's name for its messages. *)
let bare req verb = function
  | "" -> Ok req
  | _ -> Error (verb ^ " takes no argument")

let needs what wrap verb = function
  | "" -> Error (Printf.sprintf "%s needs %s" verb what)
  | payload -> wrap payload

let text wrap = needs "a query text" (fun text -> Ok (wrap text))

(* CONSENSUS, SUPPORT, RFMATRIX and COLLSTATS are QUERY sugar: the
   payload "<collection> [threshold]" becomes the call text that the
   Query Repository records. *)
let collection verb =
  let fn = String.lowercase_ascii verb in
  needs "a collection name"
    (fun payload ->
      match String.split_on_char ' ' payload |> List.filter (fun s -> s <> "") with
      | [ name ] when not (String.contains name '\'') ->
          Ok (Query (Printf.sprintf "%s('%s')" fn name))
      | [ name; th ] when fn = "consensus" && not (String.contains name '\'') -> (
          match float_of_string_opt th with
          | Some _ -> Ok (Query (Printf.sprintf "%s('%s', %s)" fn name th))
          | None -> Error "CONSENSUS threshold must be a number")
      | _ ->
          Error
            (Printf.sprintf "%s takes a collection name%s" verb
               (if fn = "consensus" then " and an optional threshold" else "")))
    verb

let verb ?(advertised = true) name parse = { verb = name; parse = parse name; advertised }

(* Every line-protocol verb, in the order HELLO advertises them. *)
let wire_table =
  [
    verb "HELLO" (bare Hello);
    verb "USE" (needs "a tree name" (fun name -> Ok (Use name)));
    verb "SEED" (fun _ p ->
        match int_of_string_opt p with
        | Some n -> Ok (Seed n)
        | None -> Error "SEED needs an integer");
    verb "QUERY" (text (fun q -> Query q));
    verb "EXPLAIN" (text (fun q -> Explain q));
    verb "PROFILE" (text (fun q -> Profile q));
    verb "CONSENSUS" collection;
    verb "SUPPORT" collection;
    verb "RFMATRIX" collection;
    verb "COLLSTATS" collection;
    verb "TOP" (bare Top);
    verb "STATS" (bare Stats);
    verb "SLOWLOG" (fun _ -> function
      | "" -> Ok (Slowlog None)
      | p -> (
          match int_of_string_opt p with
          | Some n when n >= 0 -> Ok (Slowlog (Some n))
          | Some _ | None -> Error "SLOWLOG takes an optional non-negative count"));
    verb "METRICS" (bare Metrics);
    (* Debug fault injection, never advertised: freeze the serving
       worker for N ms. Workers refuse it unless the server runs with
       debug verbs on. *)
    verb ~advertised:false "SLEEP" (fun _ p ->
        match float_of_string_opt p with
        | Some ms when ms >= 0.0 -> Ok (Sleep ms)
        | Some _ | None -> Error "SLEEP takes a non-negative duration in ms");
    verb "QUIT" (bare Quit);
  ]

let wire_verbs =
  List.filter_map (fun v -> if v.advertised then Some v.verb else None) wire_table
