module Repo = Crimson_core.Repo
module Query_lang = Crimson_core.Query_lang
module Call = Query_lang.Call
module Profile = Crimson_obs.Profile
module Newick = Crimson_formats.Newick

type outcome = Query_lang.outcome = { text : string; result : string }

exception Bad_query of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_query s)) fmt

let verbs = [ "consensus"; "support"; "rfmatrix"; "collstats" ]

let is_collection_query text =
  match Call.parse text with
  | Ok { Call.fn; _ } -> List.mem fn verbs
  | Error _ -> false

let parse text =
  match Call.parse text with Ok c -> c | Error msg -> raise (Bad_query msg)

(* ----------------------------- Execution ---------------------------- *)

let coll_arg fn = function
  | { Call.args = Call.Name n :: _; _ } -> n
  | _ -> bad "%s needs a collection name as its first argument" fn

let open_coll repo call fn =
  let name = coll_arg fn call in
  (name, Collection.open_name repo name)

let threshold_arg = function
  | [ Call.Name _ ] -> 0.5
  | [ Call.Name _; Call.Number t ] -> t
  | _ -> bad "consensus takes a collection name and an optional threshold"

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

let execute repo call =
  match call.Call.fn with
  | "consensus" ->
      let _, coll = open_coll repo call "consensus" in
      let threshold = threshold_arg call.Call.args in
      let tree = Collection.consensus ~threshold coll in
      Newick.to_string ~include_lengths:false tree
  | "support" ->
      let name, coll = open_coll repo call "support" in
      if call.Call.args <> [ Call.Name name ] then
        bad "support takes exactly one collection name";
      render_support coll (Collection.support coll)
  | "rfmatrix" ->
      let name, coll = open_coll repo call "rfmatrix" in
      if call.Call.args <> [ Call.Name name ] then
        bad "rfmatrix takes exactly one collection name";
      render_matrix (Collection.rf_matrix coll)
  | "collstats" ->
      let name, coll = open_coll repo call "collstats" in
      if call.Call.args <> [ Call.Name name ] then
        bad "collstats takes exactly one collection name";
      render_stats name (Profile.stage "stats" (fun () -> Collection.stats coll))
  | fn -> bad "unknown collection function %S" fn

(* Same no-escape contract as the per-tree language: the server feeds
   this untrusted input. *)
let trap f =
  match f () with
  | v -> Ok v
  | exception Bad_query msg -> Error msg
  | exception Collection.Collection_error msg -> Error msg
  | exception Crimson_storage.Error.Error e ->
      Error (Crimson_storage.Error.to_string e)
  | exception Stack_overflow -> Error "query too deeply nested"
  | exception Out_of_memory -> raise Out_of_memory
  | exception Crimson_obs.Deadline.Expired -> raise Crimson_obs.Deadline.Expired
  | exception e -> Error (Printf.sprintf "internal error: %s" (Printexc.to_string e))

let measured ~profiled ?(record = true) repo text =
  let body () =
    Crimson_obs.Span.with_ ~name:"coll.query" (fun () ->
        let call = Profile.stage "parse" (fun () -> parse text) in
        Crimson_obs.Span.attr "fn" (Crimson_obs.Json.Str call.Call.fn);
        Profile.stage "execute" (fun () -> execute repo call))
  in
  match
    trap (fun () ->
        if profiled then
          let result, report = Profile.profile body in
          (result, report.total.elapsed_ms, Profile.pages_touched report, Some report)
        else
          let result, elapsed_ms, pages = Profile.measure body in
          (result, elapsed_ms, pages, None))
  with
  | Error _ as e -> e
  | Ok (result, elapsed_ms, pages, report) -> (
      let cost =
        Option.map (fun r -> Crimson_obs.Json.to_string (Profile.cost_summary r)) report
      in
      match
        if record then
          ignore (Repo.record_query repo ~elapsed_ms ~pages ?cost ~text ~result)
      with
      | () -> Ok ({ text; result }, elapsed_ms, pages, report)
      | exception Crimson_storage.Error.Error e ->
          Error (Crimson_storage.Error.to_string e))

let run ?record repo text =
  Result.map (fun (o, _, _, _) -> o) (measured ~profiled:false ?record repo text)

let profile ?record repo text =
  Result.map
    (fun (o, _, _, report) -> (o, Option.get report))
    (measured ~profiled:true ?record repo text)

let explain repo text =
  trap (fun () ->
      let call = parse text in
      let fn = call.Call.fn in
      if not (List.mem fn verbs) then bad "unknown collection function %S" fn;
      let name, coll = open_coll repo call fn in
      let dict =
        Printf.sprintf
          "scan bips.by_id prefix coll=%d: %d dictionary rows, %d member rows"
          (Collection.id coll)
          (Collection.stats coll).Collection.s_dict_entries
          (Collection.n_trees coll)
      in
      let header = Printf.sprintf "plan for %s over collection %S" fn name in
      match fn with
      | "consensus" ->
          let threshold = threshold_arg call.Call.args in
          [
            header;
            dict;
            Printf.sprintf
              "filter: count/%d > %.2f%s" (Collection.n_trees coll) threshold
              (if threshold >= 1.0 then " (strict: count = n)" else "");
            "nest survivors by cardinality (no member tree materialised)";
          ]
      | "support" ->
          [ header; dict; "sort by count desc, decode bitmaps to leaf names" ]
      | "rfmatrix" ->
          [
            header;
            dict;
            Printf.sprintf
              "decode %d member id lists (deltas resolve through member 0)"
              (Collection.n_trees coll);
            "pairwise sorted-merge intersections: RF = |a|+|b|-2|a∩b|";
          ]
      | "collstats" -> [ header; dict; "sum encoded row payloads, no decoding" ]
      | _ -> assert false)

let help =
  {|Collection queries run over a whole tree collection:
  consensus(boot)            majority-rule consensus, as Newick
  consensus(boot, 0.8)       keep clades with support > 0.8 (1.0 = strict)
  support(boot)              per-bipartition occurrence counts
  rfmatrix(boot)             pairwise Robinson-Foulds matrix
  collstats(boot)            dictionary / storage statistics|}
