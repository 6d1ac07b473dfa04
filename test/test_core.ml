(* Tests for crimson_core: repositories, loader, disk-backed structure
   queries, sampling, projection, clade, pattern match, query history. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Newick = Crimson_formats.Newick
module Nexus = Crimson_formats.Nexus
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Clade = Crimson_core.Clade
module Pattern = Crimson_core.Pattern
module Summary = Crimson_core.Summary
module Query_lang = Crimson_core.Query_lang
module Table = Crimson_storage.Table
module Prng = Crimson_util.Prng
module Cost = Crimson_obs.Cost

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

let load_figure1 repo =
  let fx = Helpers.figure1 () in
  let report = Loader.load_tree ~f:2 repo ~name:"figure1" fx.tree in
  (fx, report.tree)

(* Figure 1 stored node ids are preorder ranks; the fixture is built in
   preorder so ids coincide. *)
let s_root = 0
and s_bha = 1
and s_u = 2
and s_x = 3
and s_lla = 4
and s_spy = 5
and s_syn = 6
and s_bsu = 7

(* ------------------------------ Loader ----------------------------- *)

let test_load_reports () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "nodes" 8 (Stored_tree.node_count stored);
  check Alcotest.int "leaves" 5 (Stored_tree.leaf_count stored);
  check Alcotest.string "name" "figure1" (Stored_tree.name stored);
  check Alcotest.int "f" 2 (Stored_tree.f stored);
  check Alcotest.int "root" 0 (Stored_tree.root stored)

let test_load_duplicate_name () =
  let repo = Repo.open_mem () in
  let _ = load_figure1 repo in
  let fx = Helpers.figure1 () in
  match Loader.load_tree repo ~name:"figure1" fx.tree with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted"

let test_fetch_roundtrip () =
  let repo = Repo.open_mem () in
  let fx, stored = load_figure1 repo in
  let back = Loader.fetch_tree stored in
  check Alcotest.bool "round trip" true (Tree.equal_ordered fx.tree back)

let test_fetch_roundtrip_random () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 5 in
  for i = 0 to 4 do
    let t = Helpers.random_tree rng 60 in
    let report = Loader.load_tree ~f:3 repo ~name:(Printf.sprintf "r%d" i) t in
    let back = Loader.fetch_tree report.tree in
    (* Loader renumbers to preorder ids; ordered equality still holds
       because renumbering preserves child order. *)
    check Alcotest.bool "round trip" true (Tree.equal_ordered t back)
  done

let test_list_trees () =
  let repo = Repo.open_mem () in
  let _ = load_figure1 repo in
  let fx = Helpers.figure1 () in
  let _ = Loader.load_tree repo ~name:"second" fx.tree in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "listing" [ (0, "figure1"); (1, "second") ] (Stored_tree.list_all repo)

let test_open_by_name_and_id () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let by_name = Stored_tree.open_name repo "figure1" in
  check Alcotest.int "same id" (Stored_tree.id stored) (Stored_tree.id by_name);
  (match Stored_tree.open_name repo "nope" with
  | exception Stored_tree.Unknown_tree _ -> ()
  | _ -> Alcotest.fail "unknown name accepted");
  match Stored_tree.open_id repo 99 with
  | exception Stored_tree.Unknown_tree _ -> ()
  | _ -> Alcotest.fail "unknown id accepted"

let test_delete_tree () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  Loader.delete_tree repo stored;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "gone" []
    (Stored_tree.list_all repo)

(* ------------------------- Stored accessors ------------------------ *)

let test_stored_accessors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "parent of Lla" s_x (Stored_tree.parent stored s_lla);
  check Alcotest.int "parent of root" (-1) (Stored_tree.parent stored s_root);
  check (Alcotest.option Alcotest.string) "name" (Some "Syn")
    (Stored_tree.node_name stored s_syn);
  check (Alcotest.option Alcotest.string) "unnamed becomes None" (Some "u")
    (Stored_tree.node_name stored s_u);
  check (Alcotest.float 1e-9) "branch length" 2.5 (Stored_tree.branch_length stored s_syn);
  check (Alcotest.float 1e-9) "root distance x" 1.25
    (Stored_tree.root_distance stored s_x);
  check (Alcotest.list Alcotest.int) "children of root" [ s_bha; s_u; s_bsu ]
    (Stored_tree.children stored s_root);
  check (Alcotest.list Alcotest.int) "children of x" [ s_lla; s_spy ]
    (Stored_tree.children stored s_x);
  check Alcotest.bool "leaf" true (Stored_tree.is_leaf stored s_spy);
  check Alcotest.bool "internal" false (Stored_tree.is_leaf stored s_u);
  check Alcotest.int "edge index of Bsu" 3 (Stored_tree.edge_index stored s_bsu);
  check Alcotest.int "depth of Lla" 3 (Stored_tree.depth stored s_lla)

let test_stored_unknown_node () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  match Stored_tree.parent stored 42 with
  | exception Stored_tree.Unknown_node 42 -> ()
  | _ -> Alcotest.fail "expected Unknown_node"

let test_leaf_ordinals () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (* Leaves in preorder: Bha, Lla, Spy, Syn, Bsu -> ordinals 0..4. *)
  check Alcotest.int "ord 0" s_bha (Stored_tree.leaf_by_ordinal stored 0);
  check Alcotest.int "ord 2" s_spy (Stored_tree.leaf_by_ordinal stored 2);
  check Alcotest.int "ord 4" s_bsu (Stored_tree.leaf_by_ordinal stored 4);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval of u" (1, 4)
    (Stored_tree.leaf_interval stored s_u);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval of root" (0, 5)
    (Stored_tree.leaf_interval stored s_root)

let test_node_by_name () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check (Alcotest.option Alcotest.int) "Syn" (Some s_syn)
    (Stored_tree.node_by_name stored "Syn");
  check (Alcotest.option Alcotest.int) "missing" None
    (Stored_tree.node_by_name stored "Zzz");
  match Stored_tree.leaf_ids_by_names stored [ "Bha"; "Lla" ] with
  | Ok ids -> check (Alcotest.list Alcotest.int) "resolve" [ s_bha; s_lla ] ids
  | Error e -> Alcotest.failf "unexpected error %s" e

(* ----------------------- Structure queries ------------------------- *)

let test_stored_lca_paper () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "LCA(Lla,Spy)=x" s_x (Stored_tree.lca stored s_lla s_spy);
  check Alcotest.int "LCA(Syn,Lla)=u" s_u (Stored_tree.lca stored s_syn s_lla);
  check Alcotest.int "LCA(Lla,Bsu)=root" s_root (Stored_tree.lca stored s_lla s_bsu);
  check Alcotest.int "LCA set" s_u
    (Stored_tree.lca_set stored [ s_lla; s_spy; s_syn ]);
  check Alcotest.bool "ancestor" true
    (Stored_tree.is_ancestor_or_self stored ~ancestor:s_u s_spy);
  check Alcotest.bool "not ancestor" false
    (Stored_tree.is_ancestor_or_self stored ~ancestor:s_bha s_spy)

(* Cross-check disk-backed LCA / compare / ancestry / depth against the
   in-memory implementations. [Helpers.random_tree] has unary chains,
   where a leaf-interval ancestry test must still tell a unary node from
   the leaf below it; the caterpillar is deep enough for several layers
   at f = 3. *)
let check_stored_against_memory repo rng ~name ~f t0 =
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f repo ~name t).tree in
  let rank = Tree.preorder_rank t in
  (* Stored ids are preorder ranks of t's ids. *)
  let sid v = rank.(v) in
  let depths = Tree.depths t in
  let n = Tree.node_count t in
  for _ = 1 to 150 do
    let a = Prng.int rng n in
    let b = Prng.int rng n in
    let expected = sid (Ops.naive_lca t a b) in
    let got = Stored_tree.lca stored (sid a) (sid b) in
    if got <> expected then Alcotest.failf "%s: lca mismatch %d %d" name a b;
    let cmp_mem = compare rank.(a) rank.(b) in
    let cmp_disk = Stored_tree.compare_preorder stored (sid a) (sid b) in
    if Int.compare cmp_disk 0 <> Int.compare cmp_mem 0 then
      Alcotest.failf "%s: compare mismatch %d %d" name a b;
    List.iter
      (fun (x, y) ->
        if
          Stored_tree.is_ancestor_or_self stored ~ancestor:(sid x) (sid y)
          <> (Ops.naive_lca t x y = x)
        then Alcotest.failf "%s: ancestry mismatch %d %d" name x y)
      ((a, b) :: (b, a) :: (a, a)
      :: (match Tree.parent t a with p when p = Tree.nil -> [] | p -> [ (p, a); (a, p) ]));
    if Stored_tree.depth stored (sid a) <> depths.(a) then
      Alcotest.failf "%s: depth mismatch %d" name a
  done;
  let unknown what query =
    match query () with
    | exception Stored_tree.Unknown_node m when m = n -> ()
    | _ -> Alcotest.failf "%s: %s accepted node %d" name what n
  in
  unknown "is_ancestor_or_self" (fun () ->
      Stored_tree.is_ancestor_or_self stored ~ancestor:0 n);
  unknown "is_ancestor_or_self" (fun () ->
      Stored_tree.is_ancestor_or_self stored ~ancestor:n 0);
  unknown "compare_preorder" (fun () -> Stored_tree.compare_preorder stored 0 n);
  unknown "compare_preorder" (fun () -> Stored_tree.compare_preorder stored n 0)

let test_stored_queries_match_memory () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 11 in
  for i = 0 to 2 do
    check_stored_against_memory repo rng ~name:(Printf.sprintf "x%d" i) ~f:3
      (Helpers.random_tree rng 120)
  done;
  check_stored_against_memory repo rng ~name:"caterpillar" ~f:3 (Helpers.caterpillar 2000)

(* ---------------------------- Node cache --------------------------- *)

module Node_view = Crimson_core.Node_view

(* Ground truth: one full scan of the nodes table, each row decoded by
   the generic [Record.decode] path and keyed by its own (tree, node)
   columns. It shares no code with the run directory or the cache. *)
let table_views repo stored =
  let views = Hashtbl.create 1024 in
  Table.scan (Repo.nodes repo) (fun _ row ->
      let v = Node_view.of_row row in
      if Crimson_storage.Record.get_int row Crimson_core.Schema.Nodes.c_tree
         = Stored_tree.id stored
      then begin
        if Hashtbl.mem views v.Node_view.node then
          Alcotest.failf "node %d stored twice" v.Node_view.node;
        Hashtbl.replace views v.Node_view.node v
      end);
  views

let direct_view truth node =
  match Hashtbl.find_opt truth node with
  | Some v -> v
  | None -> Alcotest.failf "node %d missing from the nodes table" node

let check_views_agree repo stored =
  let truth = table_views repo stored in
  check Alcotest.int "one row per node" (Stored_tree.node_count stored)
    (Hashtbl.length truth);
  for v = 0 to Stored_tree.node_count stored - 1 do
    if Stored_tree.view stored v <> direct_view truth v then
      Alcotest.failf "cached view differs from the table at node %d" v
  done

let test_node_cache_matches_table () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 23 in
  let t = Helpers.random_tree rng 300 in
  let report = Loader.load_tree ~f:4 repo ~name:"cached" t in
  let stored = report.tree in
  let c0 = Cost.snapshot () in
  (* Sequential sweep, then random access: both must agree with direct
     table reads under the default capacity (everything stays resident). *)
  check_views_agree repo stored;
  let truth = table_views repo stored in
  for _ = 1 to 500 do
    let v = Prng.int rng (Stored_tree.node_count stored) in
    if Stored_tree.view stored v <> direct_view truth v then
      Alcotest.failf "random access mismatch at node %d" v
  done;
  let c1 = Cost.current () in
  check Alcotest.int "no evictions at default capacity" 0
    (c1.cache_evictions - c0.cache_evictions);
  check Alcotest.bool "hits dominate on re-reads" true
    (c1.cache_hits - c0.cache_hits > c1.cache_misses - c0.cache_misses)

let test_node_cache_tiny_capacity () =
  (* A capacity-4 cache evicts on nearly every access; correctness must
     not depend on residency. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 31 in
  let t = Helpers.random_tree rng 200 in
  let report = Loader.load_tree ~f:4 repo ~name:"thrash" t in
  let tiny =
    Stored_tree.open_id ~cache_capacity:4 ~prefetch:2 repo
      (Stored_tree.id report.tree)
  in
  let evictions0 = (Cost.current ()).cache_evictions in
  check_views_agree repo tiny;
  let truth = table_views repo tiny in
  for _ = 1 to 500 do
    let v = Prng.int rng (Stored_tree.node_count tiny) in
    if Stored_tree.view tiny v <> direct_view truth v then
      Alcotest.failf "tiny-cache mismatch at node %d" v
  done;
  check Alcotest.bool "evictions occurred" true
    ((Cost.current ()).cache_evictions > evictions0);
  check Alcotest.bool "bounded residency" true (Stored_tree.cache_resident tiny <= 4);
  (* Same answers as a default-capacity handle on structure queries. *)
  let big = Stored_tree.open_id repo (Stored_tree.id report.tree) in
  for _ = 1 to 100 do
    let a = Prng.int rng (Stored_tree.node_count tiny) in
    let b = Prng.int rng (Stored_tree.node_count tiny) in
    check Alcotest.int "lca agrees" (Stored_tree.lca big a b)
      (Stored_tree.lca tiny a b);
    check Alcotest.int "depth agrees" (Stored_tree.depth big a)
      (Stored_tree.depth tiny a)
  done;
  Stored_tree.invalidate_cache tiny;
  check Alcotest.int "invalidate empties the cache" 0 (Stored_tree.cache_resident tiny)

let test_node_cache_after_reopen () =
  (* Views served through the cache must match the table after a close
     and reopen from disk, including on a tree with layers > 1. *)
  with_temp_dir (fun dir ->
      let rng = Prng.create 41 in
      let depth = 60 in
      let t = Helpers.caterpillar depth in
      (let repo = Repo.open_dir dir in
       ignore (Loader.load_tree ~f:3 repo ~name:"layered" t);
       Repo.close repo);
      let repo = Repo.open_dir dir in
      let stored = Stored_tree.open_name repo "layered" in
      check Alcotest.bool "multi-layer fixture" true
        (Stored_tree.layer_count stored > 1);
      check_views_agree repo stored;
      (* Cross-check layered LCA and depth against the in-memory tree. *)
      let rank = Tree.preorder_rank t in
      for _ = 1 to 200 do
        let a = Prng.int rng (Tree.node_count t) in
        let b = Prng.int rng (Tree.node_count t) in
        check Alcotest.int "lca after reopen" rank.(Ops.naive_lca t a b)
          (Stored_tree.lca stored rank.(a) rank.(b));
        check Alcotest.int "depth after reopen" (Tree.depths t).(a)
          (Stored_tree.depth stored rank.(a))
      done;
      Repo.close repo)

let test_is_leaf_unary_chain () =
  (* A unary node above a single leaf shares the leaf's one-element
     ordinal interval; leafness must still come out false. *)
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let mid = Tree.Builder.add_child ~branch_length:1.0 b ~parent:root in
  let unary = Tree.Builder.add_child ~branch_length:1.0 b ~parent:mid in
  let _leaf = Tree.Builder.add_child ~name:"only" ~branch_length:1.0 b ~parent:unary in
  let _other = Tree.Builder.add_child ~name:"sib" ~branch_length:2.0 b ~parent:root in
  let t = Tree.Builder.finish b in
  let repo = Repo.open_mem () in
  let report = Loader.load_tree ~f:2 repo ~name:"unary" t in
  let stored = report.tree in
  let rank = Tree.preorder_rank t in
  check Alcotest.bool "root is internal" false (Stored_tree.is_leaf stored rank.(root));
  check Alcotest.bool "unary node is internal" false
    (Stored_tree.is_leaf stored rank.(unary));
  check Alcotest.bool "chain top is internal" false
    (Stored_tree.is_leaf stored rank.(mid));
  check Alcotest.bool "leaf below the chain" true
    (Stored_tree.is_leaf stored rank.(_leaf));
  (* Last node in preorder exercises the node_count boundary branch. *)
  check Alcotest.bool "last node is a leaf" true
    (Stored_tree.is_leaf stored (Stored_tree.node_count stored - 1))

let test_next_query_id_cold_start () =
  (* Fresh repositories start at id 0; reopened ones continue after the
     largest recorded id without scanning history. *)
  with_temp_dir (fun dir ->
      (let repo = Repo.open_dir dir in
       check Alcotest.int "first id" 0 (Repo.record_query repo ~text:"a" ~result:"r");
       check Alcotest.int "second id" 1 (Repo.record_query repo ~text:"b" ~result:"r");
       check Alcotest.int "third id" 2 (Repo.record_query repo ~text:"c" ~result:"r");
       Repo.close repo);
      let repo = Repo.open_dir dir in
      check Alcotest.int "id continues across reopen" 3
        (Repo.record_query repo ~text:"d" ~result:"r");
      Repo.close repo)

(* ----------------------------- Sampling ---------------------------- *)

let test_frontier_paper_example () =
  (* §2.2: sampling at evolutionary distance 1 finds exactly
     {Bha, x, Syn, Bsu}. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check (Alcotest.list Alcotest.int) "frontier" [ s_bha; s_x; s_syn; s_bsu ]
    (Sampling.frontier_at stored ~time:1.0)

let test_with_time_paper_example () =
  (* The paper's result: {Bha, Lla, Syn, Bsu} or {Bha, Spy, Syn, Bsu}. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let seen_lla = ref false and seen_spy = ref false in
  for seed = 0 to 30 do
    let rng = Prng.create seed in
    let sample = Sampling.with_time stored ~rng ~k:4 ~time:1.0 in
    let names =
      List.sort String.compare
        (List.map (fun n -> Option.get (Stored_tree.node_name stored n)) sample)
    in
    (match names with
    | [ "Bha"; "Bsu"; "Lla"; "Syn" ] -> seen_lla := true
    | [ "Bha"; "Bsu"; "Spy"; "Syn" ] -> seen_spy := true
    | _ -> Alcotest.failf "unexpected sample {%s}" (String.concat "," names))
  done;
  check Alcotest.bool "both variants occur" true (!seen_lla && !seen_spy)

let test_uniform_sampling () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  let sample = Sampling.uniform stored ~rng ~k:3 in
  check Alcotest.int "size" 3 (List.length sample);
  List.iter
    (fun n -> check Alcotest.bool "is leaf" true (Stored_tree.is_leaf stored n))
    sample;
  check Alcotest.int "distinct" 3 (List.length (List.sort_uniq compare sample))

let test_uniform_all () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  let sample = Sampling.uniform stored ~rng ~k:5 in
  check Alcotest.int "all leaves" 5 (List.length (List.sort_uniq compare sample))

let test_sampling_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  (match Sampling.uniform stored ~rng ~k:0 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "k=0 accepted");
  (match Sampling.uniform stored ~rng ~k:6 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "k>leaves accepted");
  (match Sampling.with_time stored ~rng ~k:2 ~time:(-1.0) with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "negative time accepted");
  (* Time beyond every species: frontier empty. *)
  match Sampling.with_time stored ~rng ~k:1 ~time:100.0 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "empty frontier accepted"

let test_with_time_quota_spill () =
  (* Frontier subtree smaller than its quota: excess spills. At time 1,
     frontier = {Bha(1), x(2), Syn(1), Bsu(1)}: capacity 5. k=5 must pick
     everything. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 17 in
  let sample = Sampling.with_time stored ~rng ~k:5 ~time:1.0 in
  check Alcotest.int "all five" 5 (List.length (List.sort_uniq compare sample))

let test_with_time_deep_tree () =
  let repo = Repo.open_mem () in
  let t = Helpers.caterpillar ~branch_length:0.5 200 in
  let report = Loader.load_tree ~f:4 repo ~name:"cat" t in
  let stored = report.tree in
  let rng = Prng.create 23 in
  let sample = Sampling.with_time stored ~rng ~k:10 ~time:30.0 in
  check Alcotest.int "k" 10 (List.length sample);
  (* All sampled species must lie strictly beyond time 30 or be leaves of
     frontier subtrees (here every leaf under a frontier node is deeper
     than the frontier node itself minus its own edge). *)
  List.iter
    (fun n -> check Alcotest.bool "leaf" true (Stored_tree.is_leaf stored n))
    sample

(* ---------------------------- Projection --------------------------- *)

let test_projection_figure2 () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
  check Alcotest.int "nodes" 5 (Tree.node_count proj);
  let lla = Option.get (Tree.leaf_by_name proj "Lla") in
  check (Alcotest.float 1e-9) "merged weight 0.75+1" 1.75 (Tree.branch_length proj lla);
  (* Must agree with the in-memory reference implementation. *)
  let fx = Helpers.figure1 () in
  let reference = Ops.induced_subtree fx.tree [ fx.bha; fx.lla; fx.syn ] in
  check Alcotest.bool "matches reference" true (Tree.equal_unordered reference proj)

let test_projection_matches_reference_random () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 29 in
  for i = 0 to 3 do
    let t0 = Helpers.random_tree rng 150 in
    let t, _ = Ops.copy_with_mapping t0 in
    let report = Loader.load_tree ~f:4 repo ~name:(Printf.sprintf "p%d" i) t in
    let stored = report.tree in
    let leaves = Tree.leaves t in
    let rank = Tree.preorder_rank t in
    for _ = 1 to 10 do
      let k = 1 + Prng.int rng (Array.length leaves) in
      let pick = Prng.sample_without_replacement rng ~k ~n:(Array.length leaves) in
      let subset = Array.to_list (Array.map (fun i -> leaves.(i)) pick) in
      let reference = Ops.induced_subtree t subset in
      let proj = Projection.project stored (List.map (fun v -> rank.(v)) subset) in
      if not (Tree.equal_unordered ~tolerance:1e-6 reference proj) then
        Alcotest.failf "projection mismatch (tree %d, k=%d)" i k
    done
  done

(* Projection under an 8-page buffer pool, from one leaf up to all of
   them, with the input ids in random order. *)
let test_projection_tiny_pool () =
  let repo = Repo.open_mem ~pool_size:8 () in
  let rng = Prng.create 31 in
  List.iteri
    (fun i t0 ->
      let t, _ = Ops.copy_with_mapping t0 in
      let stored = (Loader.load_tree ~f:3 repo ~name:(Printf.sprintf "tp%d" i) t).tree in
      let leaves = Tree.leaves t in
      let rank = Tree.preorder_rank t in
      let n = Array.length leaves in
      List.iter
        (fun k ->
          let pick = Prng.sample_without_replacement rng ~k ~n in
          let subset = Array.to_list (Array.map (fun i -> leaves.(i)) pick) in
          let reference = Ops.induced_subtree t subset in
          let proj = Projection.project stored (List.map (fun v -> rank.(v)) subset) in
          if not (Tree.equal_unordered ~tolerance:1e-6 reference proj) then
            Alcotest.failf "projection mismatch under a tiny pool (tree %d, k=%d)" i k)
        [ 1; 2; 3; 17; n / 2; n - 1; n ])
    [ Helpers.caterpillar 400; Helpers.random_tree rng 800 ]

let test_projection_single_leaf () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let proj = Projection.project stored [ s_syn ] in
  check Alcotest.int "single node" 1 (Tree.node_count proj);
  check (Alcotest.option Alcotest.string) "named" (Some "Syn")
    (Tree.name proj (Tree.root proj))

let test_projection_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (match Projection.project stored [] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "empty set");
  (match Projection.project stored [ s_u ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "internal node");
  (match Projection.project stored [ s_syn; s_syn ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "duplicates");
  match Projection.project_names stored [ "Bha"; "Nope" ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "unknown name"

(* ------------------------------ Clade ------------------------------ *)

let test_clade_paper () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "root of clade" s_x (Clade.root_of stored [ s_lla; s_spy ]);
  check Alcotest.int "leaf count" 2 (Clade.size stored [ s_lla; s_spy ]);
  check (Alcotest.list Alcotest.int) "leaves" [ s_lla; s_spy ]
    (Clade.leaf_ids stored [ s_lla; s_spy ]);
  check (Alcotest.list Alcotest.int) "nodes" [ s_x; s_lla; s_spy ]
    (Clade.nodes stored [ s_lla; s_spy ]);
  check Alcotest.bool "member" true (Clade.member stored ~clade_of:[ s_lla; s_spy ] s_x);
  check Alcotest.bool "not member" false
    (Clade.member stored ~clade_of:[ s_lla; s_spy ] s_syn);
  (* Clade of Lla+Syn spans u's subtree: 3 leaves. *)
  check Alcotest.int "bigger clade" 3 (Clade.size stored [ s_lla; s_syn ])

let test_clade_limit () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "limited" 2
    (List.length (Clade.leaf_ids ~limit:2 stored [ s_lla; s_syn ]))

(* -------------------------- Pattern match -------------------------- *)

let test_pattern_paper_match () =
  (* Figure 2's pattern matches Figure 1's tree... *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let pattern = Newick.parse "(Bha:1.25,(Lla:1.75,Syn:2.5):0.5);" in
  let r = Pattern.match_pattern stored pattern in
  check Alcotest.bool "matched" true r.matched;
  check Alcotest.bool "weighted too" true r.weighted_match;
  check Alcotest.int "rf 0" 0 r.rf_distance

let test_pattern_paper_mismatch () =
  (* … but swapping Bha and Lla breaks it (paper §2.2). *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let swapped = Newick.parse "(Lla:1.25,(Bha:1.75,Syn:2.5):0.5);" in
  let r = Pattern.match_pattern stored swapped in
  check Alcotest.bool "mismatch" false r.matched;
  check Alcotest.bool "rf positive" true (r.rf_distance > 0)

let test_pattern_weights_differ () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let wrong_weights = Newick.parse "(Bha:9,(Lla:9,Syn:9):9);" in
  let r = Pattern.match_pattern stored wrong_weights in
  check Alcotest.bool "topology matches" true r.matched;
  check Alcotest.bool "weights do not" false r.weighted_match

let test_pattern_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (match Pattern.match_pattern stored (Newick.parse "(Bha,Bha);") with
  | exception Pattern.Pattern_error _ -> ()
  | _ -> Alcotest.fail "duplicate leaves accepted");
  match Pattern.match_pattern stored (Newick.parse "(Bha,Nope);") with
  | exception Pattern.Pattern_error _ -> ()
  | _ -> Alcotest.fail "unknown leaf accepted"

(* --------------------------- Species data -------------------------- *)

let test_species_roundtrip () =
  let repo = Repo.open_mem () in
  let fx = Helpers.figure1 () in
  let seqs = [ ("Bha", "ACGT"); ("Lla", String.make 5000 'A') ] in
  let report = Loader.load_tree repo ~name:"fig" ~species:seqs fx.tree in
  check Alcotest.bool "chunked rows" true (report.species_rows >= 4);
  check (Alcotest.option Alcotest.string) "short" (Some "ACGT")
    (Loader.species_sequence repo report.tree "Bha");
  check (Alcotest.option Alcotest.string) "long survives chunking"
    (Some (String.make 5000 'A'))
    (Loader.species_sequence repo report.tree "Lla");
  check (Alcotest.option Alcotest.string) "absent" None
    (Loader.species_sequence repo report.tree "Syn");
  check (Alcotest.list Alcotest.string) "names" [ "Bha"; "Lla" ]
    (Loader.species_names repo report.tree)

let test_append_species () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let n = Loader.append_species repo stored [ ("Syn", "GGCC") ] in
  check Alcotest.int "rows" 1 n;
  check (Alcotest.option Alcotest.string) "appended" (Some "GGCC")
    (Loader.species_sequence repo stored "Syn");
  (match Loader.append_species repo stored [ ("Syn", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "duplicate species accepted");
  (match Loader.append_species repo stored [ ("u", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "internal node accepted");
  match Loader.append_species repo stored [ ("Martian", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "unknown species accepted"

let test_load_nexus () =
  let repo = Repo.open_mem () in
  let doc =
    Nexus.parse
      {|#NEXUS
BEGIN DATA;
  MATRIX
    A ACGT
    B TTAA
  ;
END;
BEGIN TREES;
  TREE gold = ((A:1,B:1):1,C:2);
END;
|}
  in
  match Loader.load_nexus repo doc with
  | [ report ] ->
      check Alcotest.int "leaves" 3 (Stored_tree.leaf_count report.tree);
      check (Alcotest.option Alcotest.string) "species attached" (Some "ACGT")
        (Loader.species_sequence repo report.tree "A")
  | _ -> Alcotest.fail "expected one report"

(* -------------------------- Query history -------------------------- *)

let test_query_history () =
  let repo = Repo.open_mem () in
  let id1 =
    Repo.record_query repo ~elapsed_ms:1.25 ~pages:7 ~text:"sample k=4 t=1"
      ~result:"Bha,Lla,Syn,Bsu"
  in
  let id2 = Repo.record_query repo ~text:"project {Bha,Lla,Syn}" ~result:"ok" in
  check Alcotest.bool "ids increase" true (id2 > id1);
  (match Repo.history repo with
  | [ q1; q2 ] ->
      check Alcotest.int "first id" id1 q1.Repo.id;
      check Alcotest.string "first text" "sample k=4 t=1" q1.Repo.text;
      check (Alcotest.float 1e-9) "first elapsed" 1.25 q1.Repo.elapsed_ms;
      check Alcotest.int "first pages" 7 q1.Repo.pages;
      check Alcotest.int "second id" id2 q2.Repo.id;
      check Alcotest.string "second text" "project {Bha,Lla,Syn}" q2.Repo.text;
      check (Alcotest.float 1e-9) "unmeasured elapsed defaults to 0" 0.0 q2.Repo.elapsed_ms;
      check Alcotest.int "unmeasured pages default to 0" 0 q2.Repo.pages
  | _ -> Alcotest.fail "expected two entries");
  match Repo.history_entry repo id1 with
  | Some q ->
      check Alcotest.string "text" "sample k=4 t=1" q.Repo.text;
      check Alcotest.string "result" "Bha,Lla,Syn,Bsu" q.Repo.result;
      check (Alcotest.float 1e-9) "entry elapsed" 1.25 q.Repo.elapsed_ms;
      check Alcotest.int "entry pages" 7 q.Repo.pages
  | None -> Alcotest.fail "entry missing"

(* A repository written before the telemetry columns existed must open
   cleanly, its old rows reading as zero-cost, and keep accepting new
   measured rows. *)
let test_query_history_legacy_migration () =
  with_temp_dir (fun dir ->
      (let db = Crimson_storage.Database.open_dir dir in
       let legacy =
         Crimson_storage.Database.table db ~name:"queries"
           ~schema:Crimson_core.Schema.Queries.legacy_schema
           ~indexes:Crimson_core.Schema.Queries.indexes
       in
       ignore
         (Crimson_storage.Table.insert legacy
            [|
              Crimson_storage.Record.VInt 0;
              Crimson_storage.Record.VFloat 123.5;
              Crimson_storage.Record.VText "lca Bha,Lla";
              Crimson_storage.Record.VText "x";
            |]);
       Crimson_storage.Database.close db);
      let repo = Repo.open_dir dir in
      (match Repo.history repo with
      | [ ({ id = 0; _ } as q) ] ->
          check (Alcotest.float 1e-9) "timestamp preserved" 123.5 q.Repo.time;
          check Alcotest.string "text preserved" "lca Bha,Lla" q.Repo.text;
          check Alcotest.string "result preserved" "x" q.Repo.result;
          check (Alcotest.float 1e-9) "old rows read zero elapsed" 0.0 q.Repo.elapsed_ms;
          check Alcotest.int "old rows read zero pages" 0 q.Repo.pages
      | _ -> Alcotest.fail "expected the migrated legacy row");
      let id = Repo.record_query repo ~elapsed_ms:2.0 ~pages:3 ~text:"new" ~result:"y" in
      check Alcotest.int "ids continue after migration" 1 id;
      Repo.close repo;
      (* Reopen: the migrated table now carries the new schema. *)
      let repo = Repo.open_dir dir in
      (match Repo.history_entry repo id with
      | Some q ->
          check Alcotest.string "new row text" "new" q.Repo.text;
          check (Alcotest.float 1e-9) "new row elapsed" 2.0 q.Repo.elapsed_ms;
          check Alcotest.int "new row pages" 3 q.Repo.pages
      | None -> Alcotest.fail "new row missing after reopen");
      Repo.close repo)

(* The first telemetry generation (elapsed_ms/pages but no cost column)
   must also migrate: old rows read with an empty cost, new rows carry
   the profiler's cost JSON across a reopen. *)
let test_query_history_v1_migration () =
  with_temp_dir (fun dir ->
      (let db = Crimson_storage.Database.open_dir dir in
       let v1 =
         Crimson_storage.Database.table db ~name:"queries"
           ~schema:Crimson_core.Schema.Queries.legacy_schema_v1
           ~indexes:Crimson_core.Schema.Queries.indexes
       in
       ignore
         (Crimson_storage.Table.insert v1
            [|
              Crimson_storage.Record.VInt 0;
              Crimson_storage.Record.VFloat 50.25;
              Crimson_storage.Record.VText "lca a,b";
              Crimson_storage.Record.VText "x";
              Crimson_storage.Record.VFloat 1.5;
              Crimson_storage.Record.VInt 4;
            |]);
       Crimson_storage.Database.close db);
      let repo = Repo.open_dir dir in
      (match Repo.history repo with
      | [ q ] ->
          check Alcotest.string "text preserved" "lca a,b" q.Repo.text;
          check (Alcotest.float 1e-9) "elapsed preserved" 1.5 q.Repo.elapsed_ms;
          check Alcotest.int "pages preserved" 4 q.Repo.pages;
          check Alcotest.string "old rows read empty cost" "" q.Repo.cost
      | _ -> Alcotest.fail "expected the migrated v1 row");
      let cost = {|{"pages_read":2,"cursor_steps":9}|} in
      let id =
        Repo.record_query repo ~elapsed_ms:2.0 ~pages:3 ~cost ~text:"new" ~result:"y"
      in
      check Alcotest.int "ids continue after migration" 1 id;
      Repo.close repo;
      let repo = Repo.open_dir dir in
      (match Repo.history_entry repo id with
      | Some q -> check Alcotest.string "cost survives reopen" cost q.Repo.cost
      | None -> Alcotest.fail "new row missing after reopen");
      Repo.close repo)

(* --------------------------- Persistence --------------------------- *)

let test_persistence_across_reopen () =
  with_temp_dir (fun dir ->
      let fx = Helpers.figure1 () in
      (let repo = Repo.open_dir dir in
       let _ =
         Loader.load_tree ~f:2 repo ~name:"figure1" ~species:[ ("Bha", "ACGT") ]
           fx.tree
       in
       ignore (Repo.record_query repo ~text:"q" ~result:"r");
       Repo.close repo);
      let repo = Repo.open_dir dir in
      let stored = Stored_tree.open_name repo "figure1" in
      check Alcotest.int "nodes" 8 (Stored_tree.node_count stored);
      check Alcotest.int "LCA survives reopen" s_x (Stored_tree.lca stored s_lla s_spy);
      let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
      check Alcotest.int "projection works" 5 (Tree.node_count proj);
      check (Alcotest.option Alcotest.string) "species survive" (Some "ACGT")
        (Loader.species_sequence repo stored "Bha");
      check Alcotest.int "history survives" 1 (List.length (Repo.history repo));
      Repo.close repo)

let test_small_pool_queries () =
  (* Queries must work when the buffer pool is tiny (the paper's core
     storage claim): pool of 8 pages, tree of several thousand nodes. *)
  let repo = Repo.open_mem ~pool_size:8 () in
  let rng = Prng.create 77 in
  let t0 = Helpers.random_tree rng 3000 in
  let t, _ = Ops.copy_with_mapping t0 in
  let report = Loader.load_tree ~f:8 repo ~name:"big" t in
  let stored = report.tree in
  let rank = Tree.preorder_rank t in
  for _ = 1 to 30 do
    let a = Prng.int rng (Tree.node_count t) in
    let b = Prng.int rng (Tree.node_count t) in
    let expected = rank.(Ops.naive_lca t a b) in
    check Alcotest.int "lca under tiny pool" expected
      (Stored_tree.lca stored rank.(a) rank.(b))
  done

(* ------------------------------ Summary ----------------------------- *)

(* Brute-force rollup of the full clade under [v]: (nodes, leaves,
   height, total branch length of the edges inside the clade). *)
let brute_rollup t v =
  let rec go v =
    if Tree.is_leaf t v then (1, 1, 0, 0.0)
    else
      List.fold_left
        (fun (n, l, h, b) c ->
          let cn, cl, ch, cb = go c in
          (n + cn, l + cl, max h (ch + 1), b +. cb +. Tree.branch_length t c))
        (1, 0, 0, 0.0) (Tree.children t v)
  in
  go v

let test_summary_matches_brute () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 11 in
  let t0 = Helpers.random_tree rng 400 in
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f:3 repo ~name:"s" t).Loader.tree in
  let pre = Tree.preorder t in
  let layers = Stored_tree.layer_count stored in
  for depth = 0 to layers + 1 do
    let layer, entries = Summary.overview stored ~depth in
    check Alcotest.int
      (Printf.sprintf "layer for depth %d" depth)
      (Summary.layer_for ~layer_count:layers ~depth)
      layer;
    check Alcotest.bool
      (Printf.sprintf "depth %d has clusters" depth)
      true
      (entries <> []);
    List.iter
      (fun (e : Summary.entry) ->
        let v = pre.(e.Summary.root) in
        let n, l, h, b = brute_rollup t v in
        check Alcotest.int "nodes" n e.Summary.nodes;
        check Alcotest.int "leaves" l e.Summary.leaves;
        check Alcotest.int "height" h e.Summary.height;
        check (Alcotest.float 1e-6) "blen" b e.Summary.blen;
        check (Alcotest.option Alcotest.string) "name"
          (Tree.name t v)
          (if e.Summary.name = "" then None else Some e.Summary.name))
      entries
  done;
  (* The coarsest overview is the single top cluster covering the whole
     tree. *)
  let _, top = Summary.overview stored ~depth:0 in
  match top with
  | [ e ] ->
      check Alcotest.int "top covers all nodes" (Tree.node_count t)
        e.Summary.nodes;
      check Alcotest.int "top covers all leaves" (Tree.leaf_count t)
        e.Summary.leaves
  | _ -> Alcotest.failf "expected one top cluster, got %d" (List.length top)

let test_summary_fallback_scan () =
  (* A tree whose summary rows are gone (loaded before the table
     existed) still answers overview — recomputed from the node table —
     with identical clusters, and the miss metric counts it. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 23 in
  let t0 = Helpers.random_tree rng 120 in
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f:3 repo ~name:"old" t).Loader.tree in
  let served = Summary.overview stored ~depth:1 in
  let table = Repo.summaries repo in
  let doomed = ref [] in
  Table.scan table (fun rid _ -> doomed := rid :: !doomed);
  check Alcotest.bool "summary rows existed" true (!doomed <> []);
  List.iter (fun rid -> ignore (Table.delete table rid)) !doomed;
  let misses_before =
    Crimson_obs.Metrics.counter_value "core.summary.miss"
  in
  let recomputed = Summary.overview stored ~depth:1 in
  check Alcotest.int "same layer" (fst served) (fst recomputed);
  check Alcotest.int "same cluster count"
    (List.length (snd served))
    (List.length (snd recomputed));
  List.iter2
    (fun (a : Summary.entry) (b : Summary.entry) ->
      check Alcotest.int "sub" a.Summary.sub b.Summary.sub;
      check Alcotest.int "root" a.Summary.root b.Summary.root;
      check Alcotest.int "parent_sub" a.Summary.parent_sub b.Summary.parent_sub;
      check Alcotest.string "name" a.Summary.name b.Summary.name;
      check Alcotest.int "nodes" a.Summary.nodes b.Summary.nodes;
      check Alcotest.int "leaves" a.Summary.leaves b.Summary.leaves;
      check Alcotest.int "height" a.Summary.height b.Summary.height;
      (* The scan sums branch lengths in a different order; allow for
         float re-association. *)
      check (Alcotest.float 1e-6) "blen" a.Summary.blen b.Summary.blen)
    (snd served) (snd recomputed);
  check Alcotest.int "miss counted" (misses_before + 1)
    (Crimson_obs.Metrics.counter_value "core.summary.miss")

let test_overview_pages_sublinear () =
  (* The acceptance claim: an overview touches only the top of the
     summary table, not o(tree size) pages. PROFILE a small and a large
     tree; page touches must stay flat while the tree grows 16x, and the
     precomputed path must beat the fallback scan on the same tree. *)
  let pages_of (report : Crimson_obs.Profile.report) =
    report.Crimson_obs.Profile.total.Crimson_obs.Profile.cost
      .Crimson_obs.Profile.pager_hits
    + report.Crimson_obs.Profile.total.Crimson_obs.Profile.cost
        .Crimson_obs.Profile.pager_misses
  in
  let overview_pages repo stored =
    match Query_lang.profile ~record:false repo stored "overview(1)" with
    | Ok (_, report) -> pages_of report
    | Error e -> Alcotest.failf "overview profile failed: %s" e
  in
  let load n name =
    let repo = Repo.open_mem () in
    let rng = Prng.create (1000 + n) in
    let t0 = Helpers.random_tree rng n in
    let t, _ = Ops.copy_with_mapping t0 in
    (repo, (Loader.load_tree ~f:4 repo ~name t).Loader.tree)
  in
  let small_repo, small = load 250 "small" in
  let big_repo, big = load 4000 "big" in
  let p_small = overview_pages small_repo small in
  let p_big = overview_pages big_repo big in
  check Alcotest.bool
    (Printf.sprintf "pages flat under 16x growth (small %d, big %d)"
       p_small p_big)
    true
    (p_big <= (4 * p_small) + 8);
  (* Same tree, summary rows dropped: the node-scan fallback must cost
     strictly more page touches than the precomputed path. *)
  let table = Repo.summaries big_repo in
  let doomed = ref [] in
  Table.scan table (fun rid _ -> doomed := rid :: !doomed);
  List.iter (fun rid -> ignore (Table.delete table rid)) !doomed;
  let p_fallback = overview_pages big_repo big in
  check Alcotest.bool
    (Printf.sprintf "precomputed (%d pages) beats fallback (%d pages)"
       p_big p_fallback)
    true
    (p_big < p_fallback)

(* -------------------------- Subtree ranges -------------------------- *)
(* Stored ids are dense preorder ranks and every node row carries
   [subtree_end], so children, leafness, ancestry, clades and the
   time-sampling frontier are id arithmetic and skip-scans. Each is
   checked against the tree [Loader.fetch_tree] rebuilds in memory,
   across tree shapes, fanouts and buffer-pool sizes. *)

module Models = Crimson_sim.Models
module Database = Crimson_storage.Database
module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Schema = Crimson_core.Schema

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The recursive frontier walk and quota draw that [Sampling.with_time]
   ran before the skip-scan, kept as the oracle for its samples: for one
   seed, both must return the same species in the same order. *)
let dfs_frontier stored ~time =
  let acc = ref [] in
  let rec visit node =
    if (Stored_tree.view stored node).Node_view.root_dist > time then acc := node :: !acc
    else List.iter visit (Stored_tree.children stored node)
  in
  visit (Stored_tree.root stored);
  List.rev !acc

let dfs_with_time stored ~rng ~k ~time =
  let invalid fmt = Printf.ksprintf (fun s -> raise (Sampling.Invalid_sample s)) fmt in
  let n = Stored_tree.leaf_count stored in
  if k <= 0 then invalid "sample size %d must be positive" k;
  if k > n then invalid "sample size %d exceeds leaf count %d" k n;
  let frontier = dfs_frontier stored ~time in
  if frontier = [] then invalid "no species lies deeper than evolutionary time %g" time;
  let intervals = List.map (Stored_tree.leaf_interval stored) frontier in
  let capacity = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 intervals in
  if k > capacity then
    invalid "sample size %d exceeds the %d species below the time-%g frontier" k
      capacity time;
  let m = List.length frontier in
  let sizes = Array.of_list (List.map (fun (lo, hi) -> hi - lo) intervals) in
  let quotas = Array.make m (k / m) in
  let order = Prng.sample_without_replacement rng ~k:m ~n:m in
  for i = 0 to (k mod m) - 1 do
    quotas.(order.(i)) <- quotas.(order.(i)) + 1
  done;
  let excess = ref 0 in
  for i = 0 to m - 1 do
    if quotas.(i) > sizes.(i) then begin
      excess := !excess + (quotas.(i) - sizes.(i));
      quotas.(i) <- sizes.(i)
    end
  done;
  while !excess > 0 do
    for i = 0 to m - 1 do
      if !excess > 0 && quotas.(i) < sizes.(i) then begin
        quotas.(i) <- quotas.(i) + 1;
        decr excess
      end
    done
  done;
  let samples = ref [] in
  List.iteri
    (fun i (lo, hi) ->
      if quotas.(i) > 0 then
        Array.iter
          (fun p -> samples := Stored_tree.leaf_by_ordinal stored (lo + p) :: !samples)
          (Prng.sample_without_replacement rng ~k:quotas.(i) ~n:(hi - lo)))
    intervals;
  List.rev !samples

let sampled f = match f () with v -> Ok v | exception Sampling.Invalid_sample m -> Error m

(* Preorder ids of the subtree under [root], by an explicit-stack walk of
   the in-memory children lists. *)
let preorder_below mem root =
  let out = ref [] and stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | v :: rest ->
        out := v :: !out;
        stack := Tree.children mem v @ rest
    | [] -> ()
  done;
  List.rev !out

let check_subtree_ranges ~f ~pool tree =
  let repo = Repo.open_mem ~pool_size:pool () in
  let loaded = (Loader.load_tree ~f repo ~name:"t" tree).tree in
  (* A cold handle: answers come from storage, not the views the loader
     primed. *)
  let stored = Stored_tree.open_id repo (Stored_tree.id loaded) in
  let mem = Loader.fetch_tree stored in
  let n = Tree.node_count mem in
  let fail fmt =
    Printf.ksprintf
      (fun s -> Alcotest.failf "%s (f=%d, pool %d, %d nodes)" s f pool n)
      fmt
  in
  if Tree.preorder mem <> Array.init n Fun.id then fail "ids are not preorder ranks";
  let size = Array.make n 1 in
  for v = n - 1 downto 1 do
    let p = Tree.parent mem v in
    size.(p) <- size.(p) + size.(v)
  done;
  for v = 0 to n - 1 do
    if Stored_tree.subtree_end stored v <> v + size.(v) - 1 then fail "subtree_end %d" v;
    if Stored_tree.is_leaf stored v <> Tree.is_leaf mem v then fail "is_leaf %d" v;
    if Stored_tree.children stored v <> Tree.children mem v then fail "children %d" v
  done;
  let rng = Prng.create (n + f + pool) in
  let rec walk_up a x = x >= 0 && (x = a || walk_up a (Tree.parent mem x)) in
  for i = 1 to 400 do
    let a = Prng.int rng n in
    (* Half the pairs fall inside or just past [a]'s subtree, where the
       range bounds matter; the rest are uniform. *)
    let x =
      if i mod 2 = 0 then Prng.int rng n else min (n - 1) (a + Prng.int rng (size.(a) + 1))
    in
    if Stored_tree.is_ancestor_or_self stored ~ancestor:a x <> walk_up a x then
      fail "is_ancestor_or_self %d %d" a x
  done;
  (match Stored_tree.is_ancestor_or_self stored ~ancestor:0 n with
  | exception Stored_tree.Unknown_node _ -> ()
  | _ -> fail "ancestry of an id outside the tree");
  let rd = Tree.root_distance mem in
  let height = Array.fold_left Float.max 0.0 rd in
  let times =
    (0.0 :: List.init 8 (fun i -> height *. float_of_int (i + 1) /. 9.0)) @ [ height +. 1.0 ]
  in
  let leaves = Stored_tree.leaf_count stored in
  List.iter
    (fun time ->
      let expected =
        List.filter
          (fun v -> rd.(v) > time && (v = 0 || time >= rd.(Tree.parent mem v)))
          (List.init n Fun.id)
      in
      if Sampling.frontier_at stored ~time <> expected then fail "frontier at %g" time;
      if dfs_frontier stored ~time <> expected then fail "DFS oracle at %g" time;
      List.iter
        (fun k ->
          let seed = Prng.int rng 1_000_000 in
          let draw with_time () = with_time stored ~rng:(Prng.create seed) ~k ~time in
          if sampled (draw Sampling.with_time) <> sampled (draw dfs_with_time) then
            fail "with_time k=%d at %g" k time)
        [ 1; 3; (leaves / 2) + 1 ])
    times;
  let leaf_ids = Tree.leaves mem in
  for _ = 1 to 8 do
    let inputs =
      List.init (1 + Prng.int rng 3) (fun _ -> leaf_ids.(Prng.int rng (Array.length leaf_ids)))
    in
    let lca = Ops.naive_lca_set mem inputs in
    let below = preorder_below mem lca in
    if Clade.nodes ~limit:n stored inputs <> below then fail "Clade.nodes under %d" lca;
    if Clade.nodes ~limit:3 stored inputs <> List.filteri (fun i _ -> i < 3) below then
      fail "Clade.nodes ~limit:3 under %d" lca;
    if
      not
        (Tree.equal_ordered ~tolerance:0.0 (Ops.extract_subtree mem lca)
           (Clade.subtree ~limit:n stored inputs))
    then fail "Clade.subtree under %d" lca
  done

type shape = Yule | Birth_death | Caterpillar

let shape_name = function
  | Yule -> "yule"
  | Birth_death -> "birth-death"
  | Caterpillar -> "caterpillar"

let gen_tree shape ~seed ~leaves =
  let rng = Prng.create seed in
  match shape with
  | Yule -> Models.yule ~rng ~leaves ()
  | Birth_death -> Models.birth_death ~rng ~leaves ~birth_rate:1.0 ~death_rate:0.4 ()
  | Caterpillar -> Models.caterpillar ~rng ~leaves ()

let arb_range_case =
  QCheck.make
    ~print:(fun (shape, leaves, f, pool, seed) ->
      Printf.sprintf "%s, %d leaves, f=%d, pool %d, seed %d" (shape_name shape) leaves f
        pool seed)
    QCheck.Gen.(
      tup5
        (oneofl [ Yule; Birth_death; Caterpillar ])
        (int_range 2 300) (oneofl [ 2; 3; 8; 16 ]) (oneofl [ 8; 256 ])
        (int_bound 1_000_000))

let prop_subtree_ranges =
  QCheck.Test.make ~name:"subtree ranges = in-memory reference" ~count:40 arb_range_case
  @@ fun (shape, leaves, f, pool, seed) ->
  check_subtree_ranges ~f ~pool (gen_tree shape ~seed ~leaves);
  true

let test_subtree_ranges_deep () =
  (* A 10^4-deep caterpillar at both ends of the fanout and pool range. *)
  let tree = gen_tree Caterpillar ~seed:2006 ~leaves:10_000 in
  check_subtree_ranges ~f:2 ~pool:8 tree;
  check_subtree_ranges ~f:16 ~pool:256 tree

let test_load_primes_views () =
  (* More nodes than the cache holds: the lowest [capacity] ids come back
     resident, decoded exactly as a read of their stored rows would be. *)
  let repo = Repo.open_mem () in
  let t = Helpers.caterpillar Node_view.default_capacity in
  let stored = (Loader.load_tree ~f:8 repo ~name:"warm" t).tree in
  let primed = Node_view.default_capacity in
  check Alcotest.bool "tree exceeds the cache" true (Stored_tree.node_count stored > primed);
  let truth = table_views repo stored in
  let c0 = Cost.snapshot () in
  for v = 0 to primed - 1 do
    if Stored_tree.view stored v <> direct_view truth v then
      Alcotest.failf "primed view differs from the stored row at node %d" v
  done;
  let c1 = Cost.current () in
  check Alcotest.int "no misses over the primed ids" 0 (c1.cache_misses - c0.cache_misses);
  check Alcotest.int "one hit per primed id" primed (c1.cache_hits - c0.cache_hits);
  ignore (Stored_tree.view stored primed);
  check Alcotest.int "the first id past capacity is read" 1
    ((Cost.current ()).cache_misses - c0.cache_misses)

let test_old_nodes_layout_refused () =
  let old_schema = Array.sub Schema.Nodes.schema 0 Schema.Nodes.c_subtree_end in
  let by_parent =
    {
      Table.index_name = "by_parent";
      key_of_row =
        (fun row ->
          Some
            (Key.cat
               [
                 Key.int (Record.get_int row Schema.Nodes.c_tree);
                 Key.int (Record.get_int row Schema.Nodes.c_parent);
                 Key.int (Record.get_int row Schema.Nodes.c_edge_index);
               ]));
      unique = false;
    }
  in
  let old_indexes = Schema.Nodes.indexes @ [ by_parent ] in
  with_temp_dir (fun dir ->
      (* The layout the previous version wrote: no subtree_end, plus a
         parent index. *)
      (let db = Database.open_dir dir in
       ignore
         (Database.table db ~name:"trees" ~schema:Schema.Trees.schema
            ~indexes:Schema.Trees.indexes);
       let nodes = Database.table db ~name:"nodes" ~schema:old_schema ~indexes:old_indexes in
       ignore
         (Table.insert nodes
            Record.
              [|
                VInt 0; VInt 0; VInt (-1); VInt 0; VText "root"; VFloat 0.0; VFloat 0.0;
                VInt 0; VInt 0; VInt 0; VInt 1;
              |]);
       Database.close db);
      let refused mode =
        match Repo.open_dir ~mode dir with
        | repo ->
            Repo.close repo;
            Alcotest.fail "a nodes table without subtree_end opened"
        | exception Repo.Open_error msg ->
            List.iter
              (fun word ->
                check Alcotest.bool (Printf.sprintf "%S names %s" msg word) true
                  (contains msg word))
              [ dir; "nodes"; "subtree_end"; "re-load" ]
      in
      refused Database.Read_write;
      refused Database.Read_only;
      (* Refused, not migrated: the old rows are untouched. *)
      let db = Database.open_dir dir in
      let nodes = Database.table db ~name:"nodes" ~schema:old_schema ~indexes:old_indexes in
      check Alcotest.int "old rows kept" 1 (Table.row_count nodes);
      Database.close db)

let test_by_node_layout_refused () =
  (* The layout the previous version wrote: subtree_end present, but a
     [by_node] index beside [by_name] and a [leaves] table. *)
  let by_node =
    {
      Table.index_name = "by_node";
      key_of_row =
        (fun row ->
          Some
            (Key.cat
               [
                 Key.int (Record.get_int row Schema.Nodes.c_tree);
                 Key.int (Record.get_int row Schema.Nodes.c_node);
               ]));
      unique = true;
    }
  in
  let old_indexes = by_node :: Schema.Nodes.indexes in
  with_temp_dir (fun dir ->
      (let db = Database.open_dir dir in
       ignore
         (Database.table db ~name:"trees" ~schema:Schema.Trees.schema
            ~indexes:Schema.Trees.indexes);
       let nodes =
         Database.table db ~name:"nodes" ~schema:Schema.Nodes.schema ~indexes:old_indexes
       in
       ignore
         (Table.insert nodes
            Record.
              [|
                VInt 0; VInt 0; VInt (-1); VInt 0; VText "root"; VFloat 0.0; VFloat 0.0;
                VInt 0; VInt 0; VInt 0; VInt 1; VInt 0;
              |]);
       Database.close db);
      let refused mode =
        match Repo.open_dir ~mode dir with
        | repo ->
            Repo.close repo;
            Alcotest.fail "a nodes table with the by_node index opened"
        | exception Repo.Open_error msg ->
            List.iter
              (fun word ->
                check Alcotest.bool (Printf.sprintf "%S names %s" msg word) true
                  (contains msg word))
              [ dir; "nodes"; "index"; "by_node"; "re-load" ];
            check Alcotest.bool
              (Printf.sprintf "%S does not blame subtree_end" msg)
              false (contains msg "subtree_end")
      in
      refused Database.Read_write;
      refused Database.Read_only;
      let db = Database.open_dir dir in
      let nodes =
        Database.table db ~name:"nodes" ~schema:Schema.Nodes.schema ~indexes:old_indexes
      in
      check Alcotest.int "old rows kept" 1 (Table.row_count nodes);
      check Alcotest.bool "old index kept" true
        (Table.find nodes ~index:"by_node"
           ~key:(Key.cat [ Key.int 0; Key.int 0 ])
         <> None);
      check Alcotest.bool "no node_runs table created" false
        (List.mem "node_runs" (Database.table_names db));
      Database.close db)

(* ---------------------------- Node store ---------------------------- *)
(* Node rows are located by id and by leaf ordinal through the run
   directory alone. Each answer is checked against the in-memory tree it
   was loaded from, and the directory itself against a full scan of the
   [nodes] heap keyed by each row's own (tree, node) — across several
   trees in one repository, a delete from the middle, a later load and
   a reopen. *)

(* [tree] rebuilt in preorder, so its ids are the stored ids, with every
   third internal node named: [by_name] holds leaves and internal nodes,
   and unnamed nodes are left out of it. *)
let preorder_named tree =
  let b = Tree.Builder.create ~capacity:(Tree.node_count tree) () in
  let ids = Array.make (Tree.node_count tree) Tree.nil in
  let internal = ref 0 in
  Array.iter
    (fun v ->
      let name =
        if Tree.is_leaf tree v then Tree.name tree v
        else begin
          incr internal;
          if !internal mod 3 = 0 then Some (Printf.sprintf "I%d" !internal) else None
        end
      in
      let p = Tree.parent tree v in
      ids.(v) <-
        (if p = Tree.nil then Tree.Builder.add_root ?name b
         else
           Tree.Builder.add_child ?name ~branch_length:(Tree.branch_length tree v) b
             ~parent:ids.(p)))
    (Tree.preorder tree);
  Tree.Builder.finish b

(* The directory rows of [tree], ascending by first id, from a full scan
   of [node_runs]. *)
let directory repo ~tree =
  let rows = ref [] in
  Table.scan (Repo.node_runs repo) (fun _ row ->
      if Record.get_int row Schema.Node_runs.c_tree = tree then
        rows :=
          ( Record.get_int row Schema.Node_runs.c_first,
            Record.get_int row Schema.Node_runs.c_rid )
          :: !rows);
  List.sort compare !rows

let check_node_store repo stored mem =
  let n = Tree.node_count mem and id = Stored_tree.id stored in
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.failf "tree %d: %s" id s) fmt in
  if Stored_tree.node_count stored <> n then fail "node count";
  (* Every row of the tree, by its own (tree, node) columns. *)
  let rows = Hashtbl.create n in
  Table.scan (Repo.nodes repo) (fun rid row ->
      if Record.get_int row Schema.Nodes.c_tree = id then begin
        let node = Record.get_int row Schema.Nodes.c_node in
        if Hashtbl.mem rows node then fail "node %d stored twice" node;
        Hashtbl.replace rows node (rid, Node_view.of_row row)
      end);
  if Hashtbl.length rows <> n then fail "%d rows for %d nodes" (Hashtbl.length rows) n;
  (* The runs cover [0, n-1] exactly once, each id at its row's rid. *)
  let runs = Array.of_list (directory repo ~tree:id) in
  if Array.length runs = 0 || fst runs.(0) <> 0 then fail "no run starts at id 0";
  Array.iteri
    (fun r (first, _) ->
      if r > 0 && first <= fst runs.(r - 1) then fail "runs out of order at %d" first;
      if first >= n then fail "run past the tree at %d" first)
    runs;
  let r = ref 0 in
  for v = 0 to n - 1 do
    while !r + 1 < Array.length runs && fst runs.(!r + 1) <= v do incr r done;
    let first, rid = runs.(!r) in
    if rid + (v - first) <> fst (Hashtbl.find rows v) then fail "run misplaces node %d" v
  done;
  (* Every id's view, against the table and against the tree. *)
  let size = Tree.subtree_sizes mem and rd = Tree.root_distance mem in
  let ordinal = Array.make n 0 and leaves = ref [] and count = ref 0 in
  for v = 0 to n - 1 do
    ordinal.(v) <- !count;
    if Tree.is_leaf mem v then begin
      leaves := v :: !leaves;
      incr count
    end
  done;
  let leaves = Array.of_list (List.rev !leaves) in
  for v = 0 to n - 1 do
    let view = Stored_tree.view stored v in
    if view <> snd (Hashtbl.find rows v) then fail "view %d differs from its row" v;
    let expect =
      view.Node_view.parent = Tree.parent mem v
      && view.Node_view.name = Option.value ~default:"" (Tree.name mem v)
      && view.Node_view.blen = Tree.branch_length mem v
      && view.Node_view.root_dist = rd.(v)
      && view.Node_view.subtree_end = v + size.(v) - 1
      && view.Node_view.leaf_lo = ordinal.(v)
      (* A subtree's last preorder node is a leaf. *)
      && view.Node_view.leaf_hi = ordinal.(v + size.(v) - 1) + 1
    in
    if not expect then fail "view %d differs from the tree" v
  done;
  (* Every ordinal's leaf, and nothing past either end. *)
  Array.iteri
    (fun o leaf ->
      if Stored_tree.leaf_by_ordinal stored o <> leaf then fail "ordinal %d" o)
    leaves;
  List.iter
    (fun o ->
      match Stored_tree.leaf_by_ordinal stored o with
      | exception Stored_tree.Unknown_node _ -> ()
      | leaf -> fail "ordinal %d answered %d" o leaf)
    [ -1; Array.length leaves; Array.length leaves + 7 ];
  (* Clades: leaves in preorder, cut at the limit. *)
  let rng = Prng.create (n + id) in
  for _ = 1 to 12 do
    let inputs =
      List.init (1 + Prng.int rng 3) (fun _ ->
          leaves.(Prng.int rng (Array.length leaves)))
    in
    let lca = Ops.naive_lca_set mem inputs in
    let below =
      List.filter (fun l -> l >= lca && l < lca + size.(lca)) (Array.to_list leaves)
    in
    List.iter
      (fun limit ->
        let expected = List.filteri (fun i _ -> i < limit) below in
        if Clade.leaf_ids ~limit stored inputs <> expected then
          fail "Clade.leaf_ids ~limit:%d under %d" limit lca)
      [ 0; 1; 2; 1 + Prng.int rng (List.length below); n ]
  done;
  (* Every named node by name; the empty name matches nothing. *)
  for v = 0 to n - 1 do
    match Tree.name mem v with
    | Some name ->
        if Stored_tree.node_by_name stored name <> Some v then fail "node_by_name %S" name
    | None -> ()
  done;
  if Stored_tree.node_by_name stored "" <> None then fail "the empty name resolved"

(* [by_name] entries of one tree. *)
let named_entries repo ~tree =
  let count = ref 0 in
  Table.iter_index (Repo.nodes repo) ~index:"by_name" ~prefix:(Key.int tree) (fun _ _ ->
      incr count;
      true);
  !count

let check_node_store_repo ~f ~pool trees =
  with_temp_dir (fun dir ->
      let trees = List.map preorder_named trees in
      let repo = Repo.open_dir ~pool_size:pool dir in
      let loaded =
        List.mapi
          (fun i t ->
            ((Loader.load_tree ~f repo ~name:(Printf.sprintf "t%d" i) t).tree, t))
          trees
      in
      (* Delete one from the middle, then load one more behind it. Tree
         ids are never reused while a later tree is live. *)
      let doomed, _ = List.nth loaded (List.length loaded / 2) in
      let doomed_id = Stored_tree.id doomed in
      Loader.delete_tree repo doomed;
      let extra = preorder_named (List.hd trees) in
      let loaded =
        List.filter (fun (s, _) -> Stored_tree.id s <> doomed_id) loaded
        @ [ ((Loader.load_tree ~f repo ~name:"extra" extra).tree, extra) ]
      in
      (* Handed-over runs and primed views first, then cold handles. *)
      List.iter (fun (s, t) -> check_node_store repo s t) loaded;
      Repo.close repo;
      let repo = Repo.open_dir ~pool_size:pool dir in
      List.iter
        (fun (s, t) ->
          check_node_store repo (Stored_tree.open_name repo (Stored_tree.name s)) t)
        loaded;
      (match Stored_tree.open_id repo doomed_id with
      | exception Stored_tree.Unknown_tree _ -> ()
      | _ -> Alcotest.fail "the deleted tree still opens");
      Table.scan (Repo.nodes repo) (fun _ row ->
          if Record.get_int row Schema.Nodes.c_tree = doomed_id then
            Alcotest.fail "a deleted tree's node row survived");
      if directory repo ~tree:doomed_id <> [] then
        Alcotest.fail "a deleted tree's runs survived";
      (* Names only: one [by_name] entry per named node, none for the
         deleted tree. *)
      List.iter
        (fun (s, t) ->
          let named =
            Array.fold_left
              (fun acc v -> if Tree.name t v <> None then acc + 1 else acc)
              0 (Tree.preorder t)
          in
          check Alcotest.int "by_name holds named nodes only" named
            (named_entries repo ~tree:(Stored_tree.id s)))
        loaded;
      check Alcotest.int "no by_name entry of the deleted tree" 0
        (named_entries repo ~tree:doomed_id);
      Repo.close repo)

let arb_store_case =
  QCheck.make
    ~print:(fun (shapes, f, pool, seed) ->
      Printf.sprintf "[%s], f=%d, pool %d, seed %d"
        (String.concat "; "
           (List.map (fun (s, l) -> Printf.sprintf "%s %d" (shape_name s) l) shapes))
        f pool seed)
    QCheck.Gen.(
      quad
        (list_size (int_range 3 4)
           (pair (oneofl [ Yule; Birth_death; Caterpillar ]) (int_range 2 300)))
        (oneofl [ 2; 3; 8; 16 ]) (oneofl [ 8; 256 ]) (int_bound 1_000_000))

let prop_node_store =
  QCheck.Test.make ~name:"node store = in-memory reference" ~count:25 arb_store_case
  @@ fun (shapes, f, pool, seed) ->
  check_node_store_repo ~f ~pool
    (List.mapi (fun i (shape, leaves) -> gen_tree shape ~seed:(seed + i) ~leaves) shapes);
  true

let test_node_store_deep () =
  (* A 10^4-deep caterpillar between two Yule trees, at both ends of the
     fanout and pool range. *)
  let trees =
    [
      gen_tree Yule ~seed:1 ~leaves:200;
      gen_tree Caterpillar ~seed:2006 ~leaves:10_000;
      gen_tree Yule ~seed:3 ~leaves:300;
    ]
  in
  check_node_store_repo ~f:2 ~pool:8 trees;
  check_node_store_repo ~f:16 ~pool:256 trees

let test_forged_run_refused () =
  (* A run pointing one row off reads another node's row: every read
     path must refuse it as corrupt, never answer with that row. *)
  let repo = Repo.open_mem () in
  ignore (Loader.load_tree ~f:4 repo ~name:"a" (Helpers.caterpillar 300));
  let b = (Loader.load_tree ~f:4 repo ~name:"b" (Helpers.caterpillar 300)).tree in
  let runs = Repo.node_runs repo in
  let b_runs = ref [] in
  Table.scan runs (fun rid row ->
      if Record.get_int row Schema.Node_runs.c_tree = Stored_tree.id b then
        b_runs := (rid, row) :: !b_runs);
  (* The run holding the root, shifted back one row. *)
  let rid, row =
    List.find (fun (_, row) -> Record.get_int row Schema.Node_runs.c_first = 0) !b_runs
  in
  let shifted = Array.copy row in
  shifted.(Schema.Node_runs.c_rid) <-
    Record.VInt (Record.get_int row Schema.Node_runs.c_rid - 1);
  ignore (Table.update runs rid shifted);
  let corrupt what f =
    let cold = Stored_tree.open_id repo (Stored_tree.id b) in
    match f cold with
    | exception
        Crimson_storage.Error.Error (Crimson_storage.Error.Corrupt_page { file; _ }) ->
        check Alcotest.bool (what ^ " names nodes.heap") true (contains file "nodes.heap")
    | _ -> Alcotest.failf "%s read through a forged run" what
  in
  corrupt "view" (fun s -> ignore (Stored_tree.view s 0));
  corrupt "scan" (fun s ->
      Stored_tree.scan s ~lo:0 ~hi:0 (fun v -> v.Node_view.node + 1));
  corrupt "leaf_by_ordinal" (fun s -> ignore (Stored_tree.leaf_by_ordinal s 0))

let test_non_finite_times_refused () =
  (* A NaN or infinite cut time is refused before any read: no frontier
     walk, no pages. *)
  let repo = Repo.open_mem () in
  let _, loaded = load_figure1 repo in
  let stored = Stored_tree.open_id repo (Stored_tree.id loaded) in
  List.iter
    (fun text ->
      let before = Cost.pages (Cost.current ()) in
      (match Query_lang.run repo stored text with
      | Error msg ->
          check Alcotest.bool (Printf.sprintf "%s: %S" text msg) true (contains msg "finite")
      | Ok o -> Alcotest.failf "%s answered %S" text o.Query_lang.result);
      check Alcotest.int (text ^ " reads no page") before (Cost.pages (Cost.current ())))
    [ "frontier(nan)"; "frontier(inf)"; "frontier(-inf)"; "sample(3, nan)"; "sample(3, inf)" ]

(* ------------------------------ EXPLAIN ----------------------------- *)

(* Every "<table>.by_<index>" an EXPLAIN plan cites, for every verb of
   both query surfaces, must be an index that table really has. *)
let test_explain_names_real_indexes () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let boot = Crimson_collection.Collection.create repo ~name:"boot" ~taxa:[ "a"; "b"; "c" ] in
  ignore (Crimson_collection.Collection.ingest boot (Newick.parse "((a,b),c);"));
  let table_of = function
    | "trees" -> Repo.trees repo
    | "nodes" -> Repo.nodes repo
    | "layers" -> Repo.layers repo
    | "subtrees" -> Repo.subtrees repo
    | "species" -> Repo.species repo
    | "summaries" -> Repo.summaries repo
    | "queries" -> Repo.queries repo
    | "collections" -> Repo.collections repo
    | "bips" -> Repo.bips repo
    | "members" -> Repo.members repo
    | name -> Alcotest.failf "plan cites unknown table %s" name
  in
  let ident c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let cited line =
    let n = String.length line in
    let rec from i acc =
      if i + 4 > n then List.rev acc
      else if String.sub line i 4 = ".by_" then begin
        let lo = ref i and hi = ref (i + 4) in
        while !lo > 0 && ident line.[!lo - 1] do decr lo done;
        while !hi < n && ident line.[!hi] do incr hi done;
        from !hi ((String.sub line !lo (i - !lo), String.sub line (i + 1) (!hi - i - 1)) :: acc)
      end
      else from (i + 1) acc
    in
    from 0 []
  in
  let total = ref 0 in
  let check_plan text = function
    | Error msg -> Alcotest.failf "EXPLAIN %s: %s" text msg
    | Ok plan ->
        List.iter
          (fun line ->
            List.iter
              (fun (table, index) ->
                incr total;
                if not (List.mem index (Table.index_names (table_of table))) then
                  Alcotest.failf "EXPLAIN %s cites %s.%s, which does not exist" text table
                    index)
              (cited line))
          plan
  in
  List.iter
    (fun text -> check_plan text (Query_lang.explain stored text))
    [
      "lca(Bha, Lla)"; "clade(Lla, Spy)"; "distance(Bha, Syn)"; "path(Lla, Bsu)";
      "depth(Spy)"; "parent(Spy)"; "children(x)"; "project(Bha, Lla, Syn)"; "sample(2)";
      "sample(2, 1.0)"; "frontier(1.0)"; "match('(Bha,(Lla,Syn));')"; "seq(Bha)"; "info()";
      "overview(1)";
    ];
  List.iter
    (fun text -> check_plan text (Crimson_collection.Coll_lang.explain repo text))
    [ "consensus('boot')"; "support('boot')"; "rfmatrix('boot')"; "collstats('boot')" ];
  check Alcotest.bool "plans cite indexes" true (!total > 10)

(* ---------------------------- Accounting ---------------------------- *)
(* Storage and node-cache events are charged on the domain that causes
   them. Three domains profile the same script on their own read-only
   handles at once: each must see exactly what one domain alone sees,
   and the registry must count the sum of what all three were charged. *)

module Profile = Crimson_obs.Profile
module Metrics = Crimson_obs.Metrics

let accounting_script =
  let rng = Prng.create 2024 in
  let leaf () = Printf.sprintf "T%d" (Prng.int rng 2000) in
  List.init 50 (fun i ->
      match i mod 5 with
      | 0 -> Printf.sprintf "lca(%s, %s)" (leaf ()) (leaf ())
      | 1 -> Printf.sprintf "distance(%s, %s)" (leaf ()) (leaf ())
      | 2 -> Printf.sprintf "clade(%s, %s, %s)" (leaf ()) (leaf ()) (leaf ())
      | 3 -> Printf.sprintf "project(%s, %s, %s, %s)" (leaf ()) (leaf ()) (leaf ()) (leaf ())
      | _ -> "sample(8)")

(* Everything in a report but its clock and allocation readings. *)
let report_counts (r : Profile.report) =
  List.map
    (fun (s : Profile.stage) -> (s.stage_name, s.calls, s.cost))
    (r.total :: r.stages)

(* One profiled pass of the script on a fresh read-only handle: each
   query's counts and its request pages. *)
let accounting_pass repo stored =
  let rng = Prng.create 5 in
  List.map
    (fun text ->
      match Query_lang.measured ~profiled:true ~rng ~record:false repo stored text with
      | Ok (_, _, pages, Some report) -> (report, pages)
      | Ok (_, _, _, None) -> Alcotest.failf "%s: no report" text
      | Error msg -> Alcotest.failf "%s: %s" text msg)
    accounting_script

let mapped_counters =
  [
    ("storage.pager.hit", fun (c : Profile.counters) -> c.pager_hits);
    ("storage.pager.miss", fun c -> c.pager_misses);
    ("core.node_cache.hit", fun c -> c.cache_hits);
    ("core.node_cache.miss", fun c -> c.cache_misses);
    ("storage.btree.find", fun c -> c.btree_finds);
  ]

let test_cross_domain_accounting () =
  with_temp_dir (fun dir ->
      let repo = Repo.open_dir dir in
      ignore
        (Loader.load_tree ~f:8 repo ~name:"gold"
           (Models.yule ~rng:(Prng.create 11) ~leaves:2000 ()));
      Repo.close repo;
      let open_ro () =
        let repo = Repo.open_dir ~mode:Database.Read_only ~create:false dir in
        (repo, Stored_tree.open_name repo "gold")
      in
      let reference =
        let repo, stored = open_ro () in
        Fun.protect
          ~finally:(fun () -> Repo.close repo)
          (fun () -> accounting_pass repo stored)
      in
      List.iter
        (fun (report, pages) ->
          check Alcotest.int "request pages = pager hits + misses"
            (Profile.pages_touched report) pages)
        reference;
      (* Each domain opens its handle, then all start together once the
         registry has been read. *)
      let ready = Atomic.make 0 and go = Atomic.make false in
      let domains =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                let repo, stored = open_ro () in
                Atomic.incr ready;
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                (repo, accounting_pass repo stored)))
      in
      while Atomic.get ready < 3 do
        Domain.cpu_relax ()
      done;
      let before = List.map (fun (name, _) -> Metrics.counter_value name) mapped_counters in
      Atomic.set go true;
      let results = List.map Domain.join domains in
      let after = List.map (fun (name, _) -> Metrics.counter_value name) mapped_counters in
      List.iteri
        (fun d (_, runs) ->
          List.iter2
            (fun (ref_report, _) (report, pages) ->
              if report_counts report <> report_counts ref_report then
                Alcotest.failf "domain %d: a report differs from the one-domain run" d;
              check Alcotest.int "request pages = pager hits + misses"
                (Profile.pages_touched report) pages)
            reference runs)
        results;
      List.iteri
        (fun i (name, get) ->
          let charged =
            List.fold_left
              (fun acc (_, runs) ->
                List.fold_left
                  (fun acc ((r : Profile.report), _) -> acc + get r.total.cost)
                  acc runs)
              0 results
          in
          check Alcotest.int (name ^ " = sum of the domains' reports") charged
            (List.nth after i - List.nth before i))
        mapped_counters;
      List.iter (fun (repo, _) -> Repo.close repo) results;
      (* After a reset the names read 0, then count exactly one query. *)
      let repo, stored = open_ro () in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () ->
          Metrics.reset_all ();
          List.iter
            (fun (name, _) -> check Alcotest.int (name ^ " reset") 0 (Metrics.counter_value name))
            mapped_counters;
          match Query_lang.profile ~record:false repo stored "clade(T3, T1500)" with
          | Error msg -> Alcotest.fail msg
          | Ok (_, report) ->
              List.iter
                (fun (name, get) ->
                  check Alcotest.int (name ^ " counts the next query") (get report.total.cost)
                    (Metrics.counter_value name))
                mapped_counters))

let () =
  Alcotest.run "crimson_core"
    [
      ( "loader",
        [
          Alcotest.test_case "load figure 1" `Quick test_load_reports;
          Alcotest.test_case "duplicate name" `Quick test_load_duplicate_name;
          Alcotest.test_case "fetch round trip" `Quick test_fetch_roundtrip;
          Alcotest.test_case "fetch round trip (random)" `Quick
            test_fetch_roundtrip_random;
          Alcotest.test_case "list trees" `Quick test_list_trees;
          Alcotest.test_case "open by name/id" `Quick test_open_by_name_and_id;
          Alcotest.test_case "delete tree" `Quick test_delete_tree;
        ] );
      ( "stored_tree",
        [
          Alcotest.test_case "accessors" `Quick test_stored_accessors;
          Alcotest.test_case "unknown node" `Quick test_stored_unknown_node;
          Alcotest.test_case "leaf ordinals" `Quick test_leaf_ordinals;
          Alcotest.test_case "node by name" `Quick test_node_by_name;
          Alcotest.test_case "LCA (paper walkthrough)" `Quick test_stored_lca_paper;
          Alcotest.test_case "disk queries = memory queries" `Slow
            test_stored_queries_match_memory;
        ] );
      ( "node_cache",
        [
          Alcotest.test_case "matches direct table reads" `Quick
            test_node_cache_matches_table;
          Alcotest.test_case "tiny capacity still correct" `Quick
            test_node_cache_tiny_capacity;
          Alcotest.test_case "reopen and layers" `Quick test_node_cache_after_reopen;
          Alcotest.test_case "is_leaf on a unary chain" `Quick
            test_is_leaf_unary_chain;
          Alcotest.test_case "query id cold start" `Quick
            test_next_query_id_cold_start;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "frontier (paper example)" `Quick
            test_frontier_paper_example;
          Alcotest.test_case "time sampling (paper example)" `Quick
            test_with_time_paper_example;
          Alcotest.test_case "uniform" `Quick test_uniform_sampling;
          Alcotest.test_case "uniform k=all" `Quick test_uniform_all;
          Alcotest.test_case "invalid inputs" `Quick test_sampling_errors;
          Alcotest.test_case "quota spill" `Quick test_with_time_quota_spill;
          Alcotest.test_case "deep tree" `Quick test_with_time_deep_tree;
        ] );
      ( "projection",
        [
          Alcotest.test_case "figure 2" `Quick test_projection_figure2;
          Alcotest.test_case "matches reference (random)" `Slow
            test_projection_matches_reference_random;
          Alcotest.test_case "tiny buffer pool" `Slow test_projection_tiny_pool;
          Alcotest.test_case "single leaf" `Quick test_projection_single_leaf;
          Alcotest.test_case "errors" `Quick test_projection_errors;
        ] );
      ( "clade",
        [
          Alcotest.test_case "paper semantics" `Quick test_clade_paper;
          Alcotest.test_case "limit" `Quick test_clade_limit;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "figure 2 matches (paper)" `Quick test_pattern_paper_match;
          Alcotest.test_case "swapped leaves mismatch (paper)" `Quick
            test_pattern_paper_mismatch;
          Alcotest.test_case "weights differ" `Quick test_pattern_weights_differ;
          Alcotest.test_case "errors" `Quick test_pattern_errors;
        ] );
      ( "species",
        [
          Alcotest.test_case "round trip with chunking" `Quick test_species_roundtrip;
          Alcotest.test_case "append" `Quick test_append_species;
          Alcotest.test_case "nexus load" `Quick test_load_nexus;
        ] );
      ( "history",
        [
          Alcotest.test_case "record and recall" `Quick test_query_history;
          Alcotest.test_case "legacy schema migration" `Quick
            test_query_history_legacy_migration;
          Alcotest.test_case "v1 schema migration (no cost column)" `Quick
            test_query_history_v1_migration;
        ] );
      ( "summary",
        [
          Alcotest.test_case "rollups match brute force" `Quick
            test_summary_matches_brute;
          Alcotest.test_case "fallback scan for legacy trees" `Quick
            test_summary_fallback_scan;
          Alcotest.test_case "overview pages stay flat" `Slow
            test_overview_pages_sublinear;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "reopen" `Quick test_persistence_across_reopen;
          Alcotest.test_case "tiny buffer pool" `Slow test_small_pool_queries;
        ] );
      ( "ranges",
        [
          QCheck_alcotest.to_alcotest prop_subtree_ranges;
          Alcotest.test_case "10^4-deep caterpillar" `Quick test_subtree_ranges_deep;
          Alcotest.test_case "load primes the handle" `Quick test_load_primes_views;
          Alcotest.test_case "old nodes layout refused" `Quick
            test_old_nodes_layout_refused;
          Alcotest.test_case "non-finite times refused" `Quick
            test_non_finite_times_refused;
          Alcotest.test_case "by_node layout refused" `Quick test_by_node_layout_refused;
        ] );
      ( "node_store",
        [
          QCheck_alcotest.to_alcotest prop_node_store;
          Alcotest.test_case "10^4-deep caterpillar" `Quick test_node_store_deep;
          Alcotest.test_case "forged run is corrupt" `Quick test_forged_run_refused;
        ] );
      ( "explain",
        [
          Alcotest.test_case "plans name real indexes" `Quick
            test_explain_names_real_indexes;
        ] );
      ( "accounting",
        [ Alcotest.test_case "cross-domain sums" `Quick test_cross_domain_accounting ] );
    ]
