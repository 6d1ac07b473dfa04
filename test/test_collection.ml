(* Tests for crimson_collection: the shared-bipartition dictionary,
   delta-encoded members, bulk queries (consensus / support / RF matrix)
   and the collection query language. *)

module Tree = Crimson_tree.Tree
module Tmetrics = Crimson_tree.Metrics
module Newick = Crimson_formats.Newick
module Repo = Crimson_core.Repo
module Collection = Crimson_collection.Collection
module Coll_lang = Crimson_collection.Coll_lang
module Consensus = Crimson_recon.Consensus
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Error = Crimson_storage.Error

let check = Alcotest.check

let with_temp_dir f =
  let dir = Filename.temp_file "crimson" ".repo" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

(* Yule trees over the same leaf count share the taxon set T0..T(n-1),
   so different seeds model reconstruction runs over one data set. *)
let yule ?(leaves = 12) seed =
  Models.yule ~rng:(Prng.create seed) ~leaves ()

let taxa_of tree =
  Array.to_list (Tree.leaves tree) |> List.filter_map (Tree.name tree)

let sorted_clades tree = List.sort compare (Tmetrics.clades tree)

(* ---------------------------- Lifecycle ----------------------------- *)

let test_create_open_list_drop () =
  let repo = Repo.open_mem () in
  let c = Collection.create repo ~name:"boot" ~taxa:[ "b"; "a"; "c"; "a" ] in
  check Alcotest.int "taxa deduped" 3 (Collection.n_taxa c);
  check (Alcotest.array Alcotest.string) "taxa sorted" [| "a"; "b"; "c" |]
    (Collection.taxa c);
  check Alcotest.int "empty" 0 (Collection.n_trees c);
  let _ = Collection.create repo ~name:"algs" ~taxa:[ "a"; "b" ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "list" [ (0, "boot"); (1, "algs") ]
    (List.sort compare (Collection.list_all repo));
  let reopened = Collection.open_name repo "boot" in
  check Alcotest.int "reopen id" (Collection.id c) (Collection.id reopened);
  Collection.drop repo "boot";
  check Alcotest.int "dropped" 1 (List.length (Collection.list_all repo));
  (match Collection.open_name repo "boot" with
  | exception Collection.Collection_error _ -> ()
  | _ -> Alcotest.fail "open after drop should refuse");
  match Collection.create repo ~name:"algs" ~taxa:[ "x" ] with
  | exception Collection.Collection_error _ -> ()
  | _ -> Alcotest.fail "duplicate name should refuse"

let test_ingest_validates_leaves () =
  (* (taxa, member, the refusal when it is pinned): a smaller leaf set,
     and a member that repeats a leaf and lacks a taxon. *)
  List.iter
    (fun (taxa, wrong, refusal) ->
      let repo = Repo.open_mem () in
      let c = Collection.create repo ~name:"boot" ~taxa in
      (match Collection.ingest c wrong with
      | exception Collection.Collection_error msg ->
          Option.iter (fun expected -> check Alcotest.string "refusal" expected msg) refusal
      | _ -> Alcotest.fail "leaf-set mismatch should refuse");
      check Alcotest.int "nothing ingested" 0 (Collection.n_trees c))
    [
      (taxa_of (yule 1), yule ~leaves:9 2, None);
      ([ "A"; "B"; "C"; "D" ], Newick.parse "((A,A),(B,C));", Some "member repeats leaf \"A\"");
    ]

(* ------------------------ Dictionary sharing ------------------------ *)

let test_dictionary_dedup_and_delta () =
  let repo = Repo.open_mem () in
  let t = yule 3 in
  let c = Collection.create repo ~name:"rep" ~taxa:(taxa_of t) in
  let r0 = Collection.ingest c t in
  check Alcotest.bool "member 0 is full" false r0.Collection.delta;
  check Alcotest.int "all clades new" r0.Collection.clades r0.Collection.new_bips;
  let r1 = Collection.ingest c t in
  check Alcotest.int "no new dictionary entries" 0 r1.Collection.new_bips;
  check Alcotest.bool "identical replicate stored as delta" true r1.Collection.delta;
  check Alcotest.bool "delta is tiny"
    true (r1.Collection.enc_bytes < r0.Collection.enc_bytes);
  let s = Collection.stats c in
  check Alcotest.int "dict holds one copy" r0.Collection.clades
    s.Collection.s_dict_entries;
  check Alcotest.int "every entry shared" s.Collection.s_dict_entries
    s.Collection.s_shared_entries;
  check (Alcotest.list Alcotest.string) "member names"
    [ "m0"; "m1" ] (Collection.member_names c);
  (* Same ids decode from the full and the delta encodings. *)
  check (Alcotest.array Alcotest.int) "delta decodes to base ids"
    (Collection.member_ids c 0) (Collection.member_ids c 1)

let test_member_tree_roundtrip () =
  let repo = Repo.open_mem () in
  let t = yule 5 in
  let c = Collection.create repo ~name:"rt" ~taxa:(taxa_of t) in
  ignore (Collection.ingest c t);
  let back = Collection.member_tree c 0 in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "clade sets match" (sorted_clades t) (sorted_clades back);
  check Alcotest.bool "topology matches" true
    (Tree.equal_unordered ~weighted:false t back)

(* --------------------------- Bulk queries --------------------------- *)

let test_consensus_matches_recon () =
  (* The dictionary-scan consensus must agree with the in-memory
     majority-rule over the same trees, across thresholds. *)
  let trees = List.map yule [ 11; 12; 13; 14; 15 ] in
  let repo = Repo.open_mem () in
  let c =
    Collection.create repo ~name:"boot" ~taxa:(taxa_of (List.hd trees))
  in
  List.iter (fun t -> ignore (Collection.ingest c t)) trees;
  List.iter
    (fun threshold ->
      let expect = Consensus.majority_rule ~threshold trees in
      let got = Collection.consensus ~threshold c in
      check Alcotest.bool
        (Printf.sprintf "consensus at %.2f" threshold)
        true
        (Tree.equal_unordered ~weighted:false expect got))
    [ 0.5; 0.6; 0.8 ]

let test_strict_consensus () =
  let repo = Repo.open_mem () in
  let t = yule 7 in
  let c = Collection.create repo ~name:"rep" ~taxa:(taxa_of t) in
  ignore (Collection.ingest c t);
  ignore (Collection.ingest c t);
  let strict = Collection.consensus ~threshold:1.0 c in
  check Alcotest.bool "strict over identical replicates is the tree" true
    (Tree.equal_unordered ~weighted:false t strict);
  (match Collection.consensus ~threshold:0.3 c with
  | exception Collection.Collection_error _ -> ()
  | _ -> Alcotest.fail "threshold below 0.5 should refuse");
  let empty = Collection.create repo ~name:"empty" ~taxa:[ "a"; "b" ] in
  match Collection.consensus empty with
  | exception Collection.Collection_error _ -> ()
  | _ -> Alcotest.fail "consensus of an empty collection should refuse"

let test_support_counts () =
  let repo = Repo.open_mem () in
  let a = yule 21 and b = yule 22 in
  let c = Collection.create repo ~name:"s" ~taxa:(taxa_of a) in
  ignore (Collection.ingest c a);
  ignore (Collection.ingest c b);
  ignore (Collection.ingest c a);
  let support = Collection.support c in
  (* Counts are bounded by n_trees and sorted non-increasing. *)
  let counts = List.map snd support in
  check Alcotest.bool "sorted desc" true
    (List.sort (fun x y -> compare y x) counts = counts);
  List.iter (fun n -> check Alcotest.bool "count in range" true (n >= 1 && n <= 3)) counts;
  (* a's clades appear at least twice (ingested twice). *)
  let a_clades = sorted_clades a in
  List.iter
    (fun (names, count) ->
      if List.mem (List.sort compare names) a_clades then
        check Alcotest.bool "a's clades counted twice" true (count >= 2))
    support;
  (* Total occurrences = sum of per-member clade counts. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 support in
  let expect =
    List.length (Tmetrics.clades a) * 2 + List.length (Tmetrics.clades b)
  in
  check Alcotest.int "occurrences conserved" expect total

let test_rf_matrix_matches_tree_metric () =
  let trees = List.map yule [ 31; 32; 33; 34 ] in
  let repo = Repo.open_mem () in
  let c = Collection.create repo ~name:"rf" ~taxa:(taxa_of (List.hd trees)) in
  List.iter (fun t -> ignore (Collection.ingest c t)) trees;
  let m = Collection.rf_matrix c in
  let arr = Array.of_list trees in
  let n = Array.length arr in
  check Alcotest.int "matrix size" n (Array.length m);
  for i = 0 to n - 1 do
    check Alcotest.int "diagonal" 0 m.(i).(i);
    for j = 0 to n - 1 do
      check Alcotest.int "symmetric" m.(i).(j) m.(j).(i);
      check Alcotest.int
        (Printf.sprintf "RF(%d,%d) matches the tree metric" i j)
        (Tmetrics.robinson_foulds arr.(i) arr.(j))
        m.(i).(j)
    done
  done

let test_stats_ratio () =
  let repo = Repo.open_mem () in
  let t = yule ~leaves:40 41 in
  let c = Collection.create repo ~name:"rep" ~taxa:(taxa_of t) in
  for _ = 1 to 20 do
    ignore (Collection.ingest c t)
  done;
  let s = Collection.stats c in
  check Alcotest.int "trees" 20 s.Collection.s_trees;
  (* 20 identical replicates: one dictionary copy + 19 empty deltas
     must beat per-tree storage by a wide margin. *)
  check Alcotest.bool
    (Printf.sprintf "ratio %.2f >= 5" (Collection.ratio s))
    true
    (Collection.ratio s >= 5.0)

(* --------------------------- Persistence ---------------------------- *)

let test_persistence_across_reopen () =
  with_temp_dir (fun dir ->
      let t = yule 51 in
      let consensus1 =
        let repo = Repo.open_dir ~create:true dir in
        Fun.protect
          ~finally:(fun () -> Repo.close repo)
          (fun () ->
            let c = Collection.create repo ~name:"boot" ~taxa:(taxa_of t) in
            ignore (Collection.ingest c t);
            ignore (Collection.ingest c (yule 52));
            Newick.to_string (Collection.consensus c))
      in
      let repo = Repo.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () ->
          let c = Collection.open_name repo "boot" in
          check Alcotest.int "members survive reopen" 2 (Collection.n_trees c);
          check Alcotest.string "consensus is byte-stable across reopen"
            consensus1
            (Newick.to_string (Collection.consensus c))))

let test_read_only_refuses_mutation () =
  with_temp_dir (fun dir ->
      let t = yule 61 in
      (let repo = Repo.open_dir ~create:true dir in
       let c = Collection.create repo ~name:"boot" ~taxa:(taxa_of t) in
       ignore (Collection.ingest c t);
       Repo.close repo);
      let repo = Repo.open_dir ~mode:Crimson_storage.Database.Read_only dir in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () ->
          let c = Collection.open_name repo "boot" in
          (* Reads all work. *)
          ignore (Collection.consensus c);
          ignore (Collection.support c);
          ignore (Collection.rf_matrix c);
          ignore (Collection.stats c);
          (* Mutations refuse with the typed storage error. *)
          (match Collection.ingest c t with
          | exception Error.Error (Error.Read_only _) -> ()
          | exception e ->
              Alcotest.failf "expected Read_only, got %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "read-only ingest should refuse");
          (match Collection.drop repo "boot" with
          | exception Error.Error (Error.Read_only _) -> ()
          | exception e ->
              Alcotest.failf "expected Read_only, got %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "read-only drop should refuse");
          match Collection.create repo ~name:"other" ~taxa:[ "a"; "b" ] with
          | exception Error.Error (Error.Read_only _) -> ()
          | exception e ->
              Alcotest.failf "expected Read_only, got %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "read-only create should refuse"))

(* -------------------------- Query language -------------------------- *)

let test_coll_lang_routing () =
  check Alcotest.bool "consensus routes" true
    (Coll_lang.is_collection_query "consensus(boot)");
  check Alcotest.bool "case folds" true
    (Coll_lang.is_collection_query "RFMATRIX('boot')");
  check Alcotest.bool "tree queries do not route" false
    (Coll_lang.is_collection_query "lca(A, B)");
  check Alcotest.bool "garbage does not route" false
    (Coll_lang.is_collection_query "!!!")

let test_coll_lang_run_and_profile () =
  let repo = Repo.open_mem () in
  let t = yule 71 in
  let c = Collection.create repo ~name:"boot" ~taxa:(taxa_of t) in
  ignore (Collection.ingest c t);
  ignore (Collection.ingest c t);
  (match Coll_lang.run repo "consensus('boot', 1.0)" with
  | Ok { Coll_lang.result; _ } ->
      check Alcotest.string "strict consensus over the wire text"
        (Newick.to_string ~include_lengths:false
           (Collection.consensus ~threshold:1.0 c))
        result
  | Error msg -> Alcotest.failf "run failed: %s" msg);
  (* The query was recorded in the history. *)
  check Alcotest.bool "history row" true (Repo.history repo <> []);
  (match Coll_lang.profile repo "consensus('boot')" with
  | Ok (_, report) ->
      let names =
        List.map (fun s -> s.Crimson_obs.Profile.stage_name)
          report.Crimson_obs.Profile.stages
      in
      check Alcotest.bool "dict_scan stage present" true
        (List.mem "dict_scan" names);
      check Alcotest.bool "consensus_build stage present" true
        (List.mem "consensus_build" names)
  | Error msg -> Alcotest.failf "profile failed: %s" msg);
  (match Coll_lang.run repo "rfmatrix('boot')" with
  | Ok { Coll_lang.result; _ } ->
      check Alcotest.string "rf of identical replicates" "0 0\n0 0" result
  | Error msg -> Alcotest.failf "rfmatrix failed: %s" msg);
  (match Coll_lang.run repo "collstats('boot')" with
  | Ok { Coll_lang.result; _ } ->
      check Alcotest.bool "stats mention the dictionary" true
        (String.length result > 0)
  | Error msg -> Alcotest.failf "collstats failed: %s" msg);
  (match Coll_lang.run repo "consensus('nosuch')" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown collection should fail");
  (match Coll_lang.run repo "consensus('boot', 0.2)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad threshold should fail");
  match Coll_lang.explain repo "consensus('boot')" with
  | Ok plan -> check Alcotest.bool "plan is non-empty" true (plan <> [])
  | Error msg -> Alcotest.failf "explain failed: %s" msg

let test_coll_lang_read_only_record_refuses () =
  with_temp_dir (fun dir ->
      let t = yule 81 in
      (let repo = Repo.open_dir ~create:true dir in
       let c = Collection.create repo ~name:"boot" ~taxa:(taxa_of t) in
       ignore (Collection.ingest c t);
       Repo.close repo);
      let repo = Repo.open_dir ~mode:Crimson_storage.Database.Read_only dir in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () ->
          (* Recording is the mutating tail of the read path: on a
             read-only repository it must surface as Error, not raise. *)
          (match Coll_lang.run repo "consensus('boot')" with
          | Error msg ->
              check Alcotest.bool "typed read-only message" true
                (String.length msg > 0)
          | Ok _ -> Alcotest.fail "recording on read-only should refuse");
          match Coll_lang.run ~record:false repo "consensus('boot')" with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "record:false should succeed: %s" msg))

let () =
  Alcotest.run "collection"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create/open/list/drop" `Quick test_create_open_list_drop;
          Alcotest.test_case "ingest validates leaf set" `Quick
            test_ingest_validates_leaves;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "dedup and delta encoding" `Quick
            test_dictionary_dedup_and_delta;
          Alcotest.test_case "member tree roundtrip" `Quick test_member_tree_roundtrip;
          Alcotest.test_case "stats ratio on replicates" `Quick test_stats_ratio;
        ] );
      ( "queries",
        [
          Alcotest.test_case "consensus matches recon" `Quick
            test_consensus_matches_recon;
          Alcotest.test_case "strict consensus and errors" `Quick test_strict_consensus;
          Alcotest.test_case "support counts" `Quick test_support_counts;
          Alcotest.test_case "rf matrix matches the tree metric" `Quick
            test_rf_matrix_matches_tree_metric;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "collections survive reopen" `Quick
            test_persistence_across_reopen;
          Alcotest.test_case "read-only refuses mutation" `Quick
            test_read_only_refuses_mutation;
        ] );
      ( "language",
        [
          Alcotest.test_case "routing" `Quick test_coll_lang_routing;
          Alcotest.test_case "run/profile/explain" `Quick
            test_coll_lang_run_and_profile;
          Alcotest.test_case "read-only recording refuses" `Quick
            test_coll_lang_read_only_record_refuses;
        ] );
    ]
