module Repo = Crimson_core.Repo
module Query_lang = Crimson_core.Query_lang
module Profile = Crimson_obs.Profile
module Newick = Crimson_formats.Newick

type outcome = Query_lang.outcome = { text : string; result : string }

let bad fmt = Printf.ksprintf (fun s -> raise (Query_lang.Bad_query s)) fmt

(* ----------------------------- Rendering ---------------------------- *)

let render_support coll entries =
  let n = Collection.n_trees coll in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d bipartitions over %d trees\n"
       (List.length entries) n);
  List.iter
    (fun (names, count) ->
      Buffer.add_string buf
        (Printf.sprintf "%4d/%d  {%s}\n" count n (String.concat "," names)))
    entries;
  String.trim (Buffer.contents buf)

let render_matrix m =
  let buf = Buffer.create 256 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int v))
        row;
      Buffer.add_char buf '\n')
    m;
  String.trim (Buffer.contents buf)

let render_stats name (s : Collection.stats) =
  Printf.sprintf
    "collection %s: %d trees over %d taxa\n\
     dictionary: %d bipartitions (%d shared), %d bytes\n\
     members: %d bytes encoded\n\
     naive equivalent: %d bytes  (reduction %.2fx)"
    name s.Collection.s_trees s.s_taxa s.s_dict_entries s.s_shared_entries
    s.s_dict_bytes s.s_member_bytes s.s_naive_bytes (Collection.ratio s)

(* --------------------------- Declarations --------------------------- *)

(* A collection function's first argument names its collection, which
   is opened before the function runs or plans; a plan opens with the
   collection's dictionary. A collection error is a language error. *)
let collection name ~arity ~usage ~help ~run ~plan =
  let opened repo args f =
    match args with
    | Query_lang.Name n :: _ -> (
        match f n (Collection.open_name repo n) with
        | v -> v
        | exception Collection.Collection_error msg -> raise (Query_lang.Bad_query msg))
    | _ -> bad "%s needs a collection name as its first argument" name
  in
  let plan repo args =
    opened repo args (fun n coll ->
        let dict =
          Printf.sprintf "scan bips.by_id prefix coll=%d: %d dictionary rows, %d member rows"
            (Collection.id coll)
            (Collection.stats coll).Collection.s_dict_entries
            (Collection.n_trees coll)
        in
        Printf.sprintf "plan for %s over collection %S, opened by 1 find in \
                        collections.by_name" name n
        :: dict :: plan coll args)
  in
  let run repo args = opened repo args (fun n coll -> run n coll args) in
  { Query_lang.name; arity; usage; help; run; plan }

let consensus_usage = "consensus takes a collection name and an optional threshold"

let threshold = function
  | [ _ ] -> 0.5
  | [ _; Query_lang.Number t ] -> t
  | _ -> bad "%s" consensus_usage

let table =
  {
    Query_lang.span = "coll.query";
    unknown = Printf.sprintf "unknown collection function %S";
    fns =
      [
        collection "consensus" ~arity:(1, 2) ~usage:consensus_usage
          ~help:
            [
              ("consensus(boot)", "majority-rule consensus, as Newick");
              ("consensus(boot, 0.8)", "keep clades with support > 0.8 (1.0 = strict)");
            ]
          ~run:(fun _ coll args ->
            let threshold = threshold args in
            Newick.to_string ~include_lengths:false (Collection.consensus ~threshold coll))
          ~plan:(fun coll args ->
            let threshold = threshold args in
            [
              Printf.sprintf "filter: count/%d > %.2f%s" (Collection.n_trees coll) threshold
                (if threshold >= 1.0 then " (strict: count = n)" else "");
              "nest survivors by cardinality (no member tree materialised)";
            ]);
        collection "support" ~arity:(1, 1)
          ~usage:"support takes exactly one collection name"
          ~help:[ ("support(boot)", "per-bipartition occurrence counts") ]
          ~run:(fun _ coll _ -> render_support coll (Collection.support coll))
          ~plan:(fun _ _ -> [ "sort by count desc, decode bitmaps to leaf names" ]);
        collection "rfmatrix" ~arity:(1, 1)
          ~usage:"rfmatrix takes exactly one collection name"
          ~help:[ ("rfmatrix(boot)", "pairwise Robinson-Foulds matrix") ]
          ~run:(fun _ coll _ -> render_matrix (Collection.rf_matrix coll))
          ~plan:(fun coll _ ->
            [
              Printf.sprintf
                "decode %d member id lists, 1 find each in members.by_id (deltas resolve \
                 through member 0)"
                (Collection.n_trees coll);
              "pairwise sorted-merge intersections: RF = |a|+|b|-2|a∩b|";
            ]);
        collection "collstats" ~arity:(1, 1)
          ~usage:"collstats takes exactly one collection name"
          ~help:[ ("collstats(boot)", "dictionary / storage statistics") ]
          ~run:(fun name coll _ ->
            render_stats name (Profile.stage "stats" (fun () -> Collection.stats coll)))
          ~plan:(fun _ _ ->
            [
              "prefix scan of members.by_id; sum encoded row payloads of the dictionary \
               and the members, no decoding";
            ]);
      ];
  }

(* ------------------------------ Entry ------------------------------- *)

let is_collection_query text =
  match Query_lang.parse text with
  | Ok { Query_lang.fn; _ } -> Query_lang.mem table fn
  | Error _ -> false

let measured ~profiled ?record repo text =
  Result.bind (Query_lang.parse text)
    (Query_lang.measured_in table repo ~profiled ?record repo ~text)

let run ?record repo text =
  Result.map (fun (o, _, _, _) -> o) (measured ~profiled:false ?record repo text)

let profile ?record repo text =
  Result.map
    (fun (o, _, _, report) -> (o, Option.get report))
    (measured ~profiled:true ?record repo text)

let explain repo text =
  Result.bind (Query_lang.parse text) (Query_lang.explain_in table repo)

let help =
  "Collection queries run over a whole tree collection:\n" ^ Query_lang.cheat_sheet table
