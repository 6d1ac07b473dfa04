(* Tests for the extension features: the textual query language, DOT
   export, bootstrap support, path queries and branch scaling. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Metrics = Crimson_tree.Metrics
module Newick = Crimson_formats.Newick
module Dot = Crimson_formats.Dot
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Query_lang = Crimson_core.Query_lang
module Bootstrap = Crimson_recon.Bootstrap
module Nj = Crimson_recon.Nj
module Distance = Crimson_recon.Distance
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let load_figure1 () =
  let repo = Repo.open_mem () in
  let fx = Helpers.figure1 () in
  let stored = (Loader.load_tree ~f:2 repo ~name:"figure1" fx.tree).tree in
  (repo, stored)

(* ------------------------- Query language -------------------------- *)

let run_ok repo stored q =
  match Query_lang.run repo stored q with
  | Ok { result; _ } -> result
  | Error msg -> Alcotest.failf "query %S failed: %s" q msg

let test_query_lca () =
  let repo, stored = load_figure1 () in
  let r = run_ok repo stored "lca(Lla, Spy)" in
  check Alcotest.bool "names x" true (contains "x" r);
  let r2 = run_ok repo stored "lca(Syn, Lla)" in
  check Alcotest.bool "names u" true (contains "u" r2)

let test_query_clade_distance_path () =
  let repo, stored = load_figure1 () in
  check Alcotest.bool "clade" true (contains "2 species" (run_ok repo stored "clade(Lla,Spy)"));
  check Alcotest.string "distance" "4.25" (run_ok repo stored "distance(Bha, Syn)");
  let path = run_ok repo stored "path(Lla, Syn)" in
  check Alcotest.bool "path goes via x and u" true
    (contains "Lla" path && contains "x" path && contains "u" path && contains "Syn" path)

let test_query_navigation () =
  let repo, stored = load_figure1 () in
  check Alcotest.string "depth" "3" (run_ok repo stored "depth(Spy)");
  check Alcotest.string "parent" "x" (run_ok repo stored "parent(Spy)");
  check Alcotest.bool "children" true
    (contains "Lla" (run_ok repo stored "children(x)"));
  check Alcotest.string "leaf children" "(leaf)" (run_ok repo stored "children(Spy)");
  check Alcotest.string "root parent" "(root has no parent)"
    (run_ok repo stored "parent(root)")

let test_query_project_and_match () =
  let repo, stored = load_figure1 () in
  let newick = run_ok repo stored "project(Bha, Lla, Syn)" in
  let t = Newick.parse newick in
  check Alcotest.int "projection leaves" 3 (Tree.leaf_count t);
  check Alcotest.bool "match true" true
    (contains "matched=true" (run_ok repo stored "match('(Bha,(Lla,Syn));')"));
  check Alcotest.bool "match false" true
    (contains "matched=false" (run_ok repo stored "match('(Lla,(Bha,Syn));')"))

let test_query_sampling () =
  let repo, stored = load_figure1 () in
  let r = run_ok repo stored "sample(3)" in
  check Alcotest.int "three names" 3 (List.length (String.split_on_char ',' r));
  let fr = run_ok repo stored "frontier(1.0)" in
  check Alcotest.bool "paper frontier" true
    (contains "4 nodes" fr && contains "Bha" fr && contains "Bsu" fr)

let test_query_quoted_and_node_ids () =
  let repo, stored = load_figure1 () in
  check Alcotest.string "quoted name" "3" (run_ok repo stored "depth('Spy')");
  (* #0 is the root. *)
  check Alcotest.bool "node id" true (contains "Bha" (run_ok repo stored "children(#0)"))

let test_query_info_and_seq () =
  let repo, stored = load_figure1 () in
  ignore (Loader.append_species repo stored [ ("Bha", "ACGTACGT") ]);
  check Alcotest.bool "info" true (contains "8 nodes" (run_ok repo stored "info()"));
  check Alcotest.string "seq" "ACGTACGT" (run_ok repo stored "seq(Bha)");
  check Alcotest.bool "seq missing" true
    (contains "no sequence" (run_ok repo stored "seq(Syn)"))

let test_query_errors () =
  let repo, stored = load_figure1 () in
  let expect_error q =
    match Query_lang.run repo stored q with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure for %S" q
  in
  expect_error "lca(Lla)";
  expect_error "unknownfn(a)";
  expect_error "lca(Lla, Nope)";
  expect_error "lca(Lla, Spy";
  expect_error "lca(Lla,, Spy)";
  expect_error "distance(1.5, Spy)";
  expect_error "sample(0)";
  expect_error "match('((broken');";
  expect_error "lca(Lla, Spy) trailing"

let test_query_records_history () =
  let repo, stored = load_figure1 () in
  ignore (run_ok repo stored "lca(Lla, Spy)");
  (match Query_lang.run ~record:false repo stored "depth(Spy)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let history = Repo.history repo in
  check Alcotest.int "only recorded queries" 1 (List.length history);
  match history with
  | [ q ] ->
      check Alcotest.string "text" "lca(Lla, Spy)" q.Repo.text;
      check Alcotest.bool "result" true (contains "x" q.Repo.result)
  | _ -> Alcotest.fail "unexpected history"

(* explain: plan without execution, same guardrails as run, no history. *)
let test_query_explain () =
  let repo, stored = load_figure1 () in
  (match Query_lang.explain stored "lca(Lla, Spy)" with
  | Ok (header :: rest) ->
      check Alcotest.bool "header names the function" true (contains "lca/2" header);
      check Alcotest.bool "plan describes access paths" true
        (List.exists (fun l -> contains "B+tree" l || contains "layer" l) rest)
  | Ok [] -> Alcotest.fail "empty plan"
  | Error e -> Alcotest.fail e);
  (match Query_lang.explain stored "lca(Lla)" with
  | Error msg -> check Alcotest.bool "arity error mentions lca" true (contains "lca" msg)
  | Ok _ -> Alcotest.fail "bad arity must fail");
  (match Query_lang.explain stored "lca(Lla, Spy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated query must fail");
  check Alcotest.int "explain records nothing" 0 (List.length (Repo.history repo))

(* profile: same outcome as run, plus a staged cost report whose totals
   land in the history row's cost column. *)
let test_query_profile () =
  let repo, stored = load_figure1 () in
  (match Query_lang.profile repo stored "lca(Lla, Spy)" with
  | Error e -> Alcotest.fail e
  | Ok ({ result; _ }, report) ->
      check Alcotest.bool "same result as run" true (contains "x" result);
      let open Crimson_obs.Profile in
      let stage_names = List.map (fun s -> s.stage_name) report.stages in
      check Alcotest.bool "parse and execute stages" true
        (List.mem "parse" stage_names && List.mem "execute" stage_names);
      check Alcotest.bool "work was charged" true (pages_touched report > 0));
  (match Repo.history repo with
  | [ q ] ->
      check Alcotest.bool "history row carries cost JSON" true
        (String.length q.Repo.cost > 0 && q.Repo.cost.[0] = '{')
  | _ -> Alcotest.fail "expected one history row");
  (* Profiling off the record leaves the history alone. *)
  (match Query_lang.profile ~record:false repo stored "depth(Spy)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "record:false adds nothing" 1 (List.length (Repo.history repo))

let test_query_never_raises () =
  (* Arbitrary bytes — adversarial cases plus deterministic random fuzz —
     must come back as Ok/Error, never as an exception. *)
  let repo, stored = load_figure1 () in
  let feed q =
    match Query_lang.run ~record:false repo stored q with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "query %S raised %s" q (Printexc.to_string e)
  in
  let nasty =
    [
      "";
      " ";
      "(((((";
      "lca(((((";
      "lca" ^ String.concat "" (List.init 200 (fun _ -> "(a,"));
      "sample(nan)";
      "sample(-1)";
      "sample(99999999999999999999999999)";
      "depth(#99999999999999999999)";
      "depth(#-1)";
      "depth('unterminated";
      "depth('')";
      "match('";
      "match('(((((')";
      "\x00\x01\x02\xff";
      "lca(\x00, \xff)";
      String.make 10000 'x';
      "seq()";
      "frontier(inf)";
      "frontier(-3.0)";
      "project()";
      "children(,)";
      ",,,";
      "lca(Lla, Spy));;";
    ]
  in
  List.iter feed nasty;
  let rng = Prng.create 99 in
  for _ = 1 to 500 do
    let len = Prng.int rng 40 in
    feed (String.init len (fun _ -> Char.chr (Prng.int rng 256)))
  done;
  (* Fuzz around valid syntax too: random bytes inside a call shape. *)
  for _ = 1 to 200 do
    let chunk n = String.init n (fun _ -> Char.chr (32 + Prng.int rng 96)) in
    feed (Printf.sprintf "lca(%s, %s)" (chunk (Prng.int rng 8)) (chunk (Prng.int rng 8)))
  done

let test_query_deterministic_sampling () =
  let repo, stored = load_figure1 () in
  let a = Query_lang.run ~rng:(Prng.create 5) ~record:false repo stored "sample(3)" in
  let b = Query_lang.run ~rng:(Prng.create 5) ~record:false repo stored "sample(3)" in
  check Alcotest.bool "same rng, same sample" true (a = b)

(* ------------------------------- DOT -------------------------------- *)

let test_dot_render () =
  let fx = Helpers.figure1 () in
  let dot = Dot.render fx.tree in
  check Alcotest.bool "digraph" true (contains "digraph" dot);
  List.iter
    (fun name -> check Alcotest.bool ("mentions " ^ name) true (contains name dot))
    [ "Bha"; "Lla"; "Spy"; "Syn"; "Bsu" ];
  (* 7 edges for 8 nodes. *)
  let edge_count =
    List.length (String.split_on_char '\n' dot |> List.filter (contains "->"))
  in
  check Alcotest.int "edges" 7 edge_count;
  check Alcotest.bool "edge weights" true (contains "label=\"2.5\"" dot)

let test_dot_escaping () =
  let b = Tree.Builder.create () in
  let r = Tree.Builder.add_root ~name:"we\"ird" b in
  ignore (Tree.Builder.add_child ~name:"a\\b" ~branch_length:1.0 b ~parent:r);
  ignore (Tree.Builder.add_child ~name:"plain" ~branch_length:1.0 b ~parent:r);
  let dot = Dot.render (Tree.Builder.finish b) in
  check Alcotest.bool "escaped quote" true (contains "we\\\"ird" dot);
  check Alcotest.bool "escaped backslash" true (contains "a\\\\b" dot)

let test_dot_no_lengths () =
  let fx = Helpers.figure1 () in
  let dot = Dot.render ~show_lengths:false fx.tree in
  check Alcotest.bool "no edge labels" false (contains "label=\"2.5\"" dot)

let test_dot_file () =
  let fx = Helpers.figure1 () in
  let path = Filename.temp_file "crimson" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dot.write_file path fx.tree;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.bool "written" true (contains "digraph" content))

(* ------------------------------ FASTA ------------------------------- *)

module Fasta = Crimson_formats.Fasta

let test_fasta_parse () =
  let src = ">A desc here\nACGT\nACGT\n\n>B\nTTTT\n; a comment\nCCCC\n" in
  let seqs = Fasta.parse src in
  check Alcotest.int "entries" 2 (List.length seqs);
  check Alcotest.string "A joined" "ACGTACGT" (List.assoc "A" seqs);
  check Alcotest.string "B skips comment" "TTTTCCCC" (List.assoc "B" seqs)

let test_fasta_crlf () =
  let seqs = Fasta.parse ">A\r\nAC GT\r\n" in
  check Alcotest.string "crlf + spaces" "ACGT" (List.assoc "A" seqs)

let test_fasta_errors () =
  let expect_error s =
    match Fasta.parse s with
    | exception Fasta.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected error for %S" s
  in
  expect_error "ACGT\n";
  expect_error ">\nACGT\n";
  expect_error ">A\nACGT\n>A\nTTTT\n";
  expect_error ">A\n>B\nACGT\n"

let test_fasta_roundtrip () =
  let seqs = [ ("Bha", String.make 150 'A'); ("Lla", "ACGT") ] in
  let parsed = Fasta.parse (Fasta.to_string ~width:60 seqs) in
  check Alcotest.bool "roundtrip" true (parsed = seqs);
  (* Wrapped lines. *)
  let rendered = Fasta.to_string ~width:60 seqs in
  check Alcotest.bool "wrapped" true
    (List.exists (fun l -> String.length l = 60) (String.split_on_char '\n' rendered))

let test_fasta_file () =
  let path = Filename.temp_file "crimson" ".fa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fasta.write_file path [ ("X", "ACGT") ];
      check Alcotest.bool "file roundtrip" true (Fasta.parse_file path = [ ("X", "ACGT") ]))

(* ---------------------------- Tree stats ---------------------------- *)

module Tree_stats = Crimson_core.Tree_stats

let test_tree_stats_figure1 () =
  let _repo, stored = load_figure1 () in
  let s = Tree_stats.compute stored in
  check Alcotest.int "nodes" 8 s.nodes;
  check Alcotest.int "leaves" 5 s.leaves;
  check Alcotest.int "max depth" 3 s.max_depth;
  check Alcotest.int "max degree" 3 s.max_out_degree;
  check (Alcotest.float 1e-9) "height" 3.0 s.max_root_distance;
  check (Alcotest.float 1e-9) "max branch" 2.5 s.max_branch_length;
  (* Mean leaf depth: Bha 1, Lla 3, Spy 3, Syn 2, Bsu 1 -> 2.0. *)
  check (Alcotest.float 1e-9) "mean leaf depth" 2.0 s.mean_leaf_depth;
  (* Depth histogram covers all 8 nodes. *)
  check Alcotest.int "histogram total" 8
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 s.depth_histogram);
  check Alcotest.bool "renders" true (String.length (Tree_stats.to_string s) > 0)

let test_tree_stats_binary_fraction () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 4 in
  let t = Models.yule ~rng ~leaves:50 () in
  let stored = (Loader.load_tree ~f:4 repo ~name:"y" t).tree in
  let s = Tree_stats.compute stored in
  check (Alcotest.float 1e-9) "yule is binary" 1.0 s.binary_fraction;
  check Alcotest.int "leaves" 50 s.leaves

(* ----------------------------- Bootstrap ---------------------------- *)

let test_resample_shape () =
  let rng = Prng.create 1 in
  let seqs = [ ("A", "ACGTACGT"); ("B", "TTTTCCCC") ] in
  let resampled = Bootstrap.resample_columns ~rng seqs in
  check Alcotest.int "taxa" 2 (List.length resampled);
  List.iter
    (fun (_, s) -> check Alcotest.int "length preserved" 8 (String.length s))
    resampled;
  (* Columns stay aligned: position i of A and B always comes from the
     same source column, so (A char, B char) pairs must be original
     column pairs. *)
  let a = List.assoc "A" resampled and b = List.assoc "B" resampled in
  let original = [ ('A', 'T'); ('C', 'T'); ('G', 'T'); ('T', 'T');
                   ('A', 'C'); ('C', 'C'); ('G', 'C'); ('T', 'C') ] in
  String.iteri
    (fun i ca ->
      if not (List.mem (ca, b.[i]) original) then Alcotest.fail "columns unglued")
    a

let test_bootstrap_strong_signal () =
  (* Clean, well-separated data: the true clades should get support ~1. *)
  let rng = Prng.create 2 in
  let truth =
    Ops.normalize_height ~target:0.3 (Models.yule ~rng ~leaves:8 ())
  in
  let seqs = Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:3000 truth in
  (* Root every replicate at the same outgroup: rooted clade counts are
     only comparable across replicates under a consistent rooting. *)
  let infer s =
    Crimson_recon.Reroot.at_outgroup (Nj.reconstruct (Distance.jc69 s)) ~outgroup:"T0"
  in
  let result = Bootstrap.run ~rng ~replicates:20 ~infer seqs in
  check Alcotest.int "replicates" 20 (List.length result.replicates);
  (* Consensus should equal the truth's unrooted topology. *)
  check Alcotest.int "consensus = truth" 0
    (Metrics.robinson_foulds_unrooted truth result.consensus);
  (* Every true clade of the inferred consensus has high support. *)
  List.iter
    (fun clade ->
      let s = Bootstrap.support_of_clade result clade in
      if s < 0.7 then Alcotest.failf "clade support %.2f too low" s)
    (Metrics.clades result.consensus)

let test_bootstrap_validation () =
  let rng = Prng.create 3 in
  (match Bootstrap.resample_columns ~rng [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty alignment accepted");
  match Bootstrap.run ~rng ~replicates:0 ~infer:(fun _ -> assert false) [ ("A", "AC") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 replicates accepted"

(* -------------------------- Path queries ---------------------------- *)

let test_path_distance () =
  let repo, stored = load_figure1 () in
  ignore repo;
  let node name = Option.get (Stored_tree.node_by_name stored name) in
  (* Bha(1.25) to Syn: 1.25 + 0.5 + 2.5 = 4.25. *)
  check (Alcotest.float 1e-9) "Bha-Syn" 4.25
    (Stored_tree.path_distance stored (node "Bha") (node "Syn"));
  check (Alcotest.float 1e-9) "Lla-Spy" 2.0
    (Stored_tree.path_distance stored (node "Lla") (node "Spy"));
  check (Alcotest.float 1e-9) "self" 0.0
    (Stored_tree.path_distance stored (node "Lla") (node "Lla"));
  (* Ancestor-descendant distance. *)
  check (Alcotest.float 1e-9) "u-Spy" 1.75
    (Stored_tree.path_distance stored (node "u") (node "Spy"))

let test_path_nodes () =
  let repo, stored = load_figure1 () in
  ignore repo;
  let node name = Option.get (Stored_tree.node_by_name stored name) in
  let names path =
    List.map (fun n -> Option.get (Stored_tree.node_name stored n)) path
  in
  check (Alcotest.list Alcotest.string) "Lla to Syn" [ "Lla"; "x"; "u"; "Syn" ]
    (names (Stored_tree.path_nodes stored (node "Lla") (node "Syn")));
  check (Alcotest.list Alcotest.string) "self" [ "Spy" ]
    (names (Stored_tree.path_nodes stored (node "Spy") (node "Spy")));
  check (Alcotest.list Alcotest.string) "down from ancestor" [ "u"; "x"; "Lla" ]
    (names (Stored_tree.path_nodes stored (node "u") (node "Lla")));
  check (Alcotest.list Alcotest.string) "up to ancestor" [ "Lla"; "x"; "u" ]
    (names (Stored_tree.path_nodes stored (node "Lla") (node "u")))

(* ------------------------ Branch scaling ---------------------------- *)

let test_scale_branches () =
  let fx = Helpers.figure1 () in
  let scaled = Ops.scale_branches fx.tree ~factor:2.0 in
  let syn = Option.get (Tree.find_by_name scaled "Syn") in
  check (Alcotest.float 1e-9) "doubled" 5.0 (Tree.branch_length scaled syn);
  check Alcotest.bool "topology kept" true
    (Tree.equal_unordered ~weighted:false fx.tree scaled);
  match Ops.scale_branches fx.tree ~factor:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero factor accepted"

let test_normalize_height () =
  let fx = Helpers.figure1 () in
  let normalized = Ops.normalize_height fx.tree ~target:1.0 in
  let max_dist = Array.fold_left Float.max 0.0 (Tree.root_distance normalized) in
  check (Alcotest.float 1e-9) "height 1.0" 1.0 max_dist;
  (* A single-node tree is returned unchanged. *)
  let b = Tree.Builder.create () in
  ignore (Tree.Builder.add_root b);
  let single = Tree.Builder.finish b in
  ignore (Ops.normalize_height single ~target:5.0)

let () =
  Alcotest.run "crimson_extensions"
    [
      ( "query_lang",
        [
          Alcotest.test_case "lca" `Quick test_query_lca;
          Alcotest.test_case "clade / distance / path" `Quick
            test_query_clade_distance_path;
          Alcotest.test_case "navigation" `Quick test_query_navigation;
          Alcotest.test_case "project and match" `Quick test_query_project_and_match;
          Alcotest.test_case "sampling" `Quick test_query_sampling;
          Alcotest.test_case "quotes and node ids" `Quick test_query_quoted_and_node_ids;
          Alcotest.test_case "info and seq" `Quick test_query_info_and_seq;
          Alcotest.test_case "errors" `Quick test_query_errors;
          Alcotest.test_case "never raises on arbitrary bytes" `Quick
            test_query_never_raises;
          Alcotest.test_case "history recording" `Quick test_query_records_history;
          Alcotest.test_case "explain" `Quick test_query_explain;
          Alcotest.test_case "profile" `Quick test_query_profile;
          Alcotest.test_case "deterministic sampling" `Quick
            test_query_deterministic_sampling;
        ] );
      ( "dot",
        [
          Alcotest.test_case "render" `Quick test_dot_render;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
          Alcotest.test_case "lengths flag" `Quick test_dot_no_lengths;
          Alcotest.test_case "file" `Quick test_dot_file;
        ] );
      ( "fasta",
        [
          Alcotest.test_case "parse" `Quick test_fasta_parse;
          Alcotest.test_case "crlf and spaces" `Quick test_fasta_crlf;
          Alcotest.test_case "errors" `Quick test_fasta_errors;
          Alcotest.test_case "roundtrip" `Quick test_fasta_roundtrip;
          Alcotest.test_case "file io" `Quick test_fasta_file;
        ] );
      ( "tree_stats",
        [
          Alcotest.test_case "figure 1" `Quick test_tree_stats_figure1;
          Alcotest.test_case "binary fraction" `Quick test_tree_stats_binary_fraction;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "resampling shape" `Quick test_resample_shape;
          Alcotest.test_case "strong signal support" `Slow test_bootstrap_strong_signal;
          Alcotest.test_case "validation" `Quick test_bootstrap_validation;
        ] );
      ( "paths",
        [
          Alcotest.test_case "path distance" `Quick test_path_distance;
          Alcotest.test_case "path nodes" `Quick test_path_nodes;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "scale branches" `Quick test_scale_branches;
          Alcotest.test_case "normalize height" `Quick test_normalize_height;
        ] );
    ]
