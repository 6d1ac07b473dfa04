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
module Name_run = Crimson_core.Name_run
module Table = Crimson_storage.Table
module Prng = Crimson_util.Prng
module Cost = Crimson_obs.Cost

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

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

(* A refused load writes nothing: each refusal raises [Load_error] before
   the first insert, so afterwards the catalog, every table's rows and
   the run directory are as they were, and the next load takes the next
   tree id. The repository is on disk and reopened, so nothing written
   by the refused load could hide in the pool. *)
let refused_load_writes_nothing load () =
  with_temp_dir (fun dir ->
      let repo = Repo.open_dir dir in
      let fx = Helpers.figure1 () in
      ignore (Loader.load_tree repo ~name:"a" fx.tree);
      let rows repo =
        List.map
          (fun table -> Table.row_count (table repo))
          Repo.[ trees; nodes; names; node_runs; layers; subtrees; summaries; species ]
      in
      let before = (Stored_tree.list_all repo, rows repo) in
      (match load repo with
      | _ -> Alcotest.fail "the load was not refused"
      | exception Loader.Load_error _ -> ());
      Repo.close repo;
      let repo = Repo.open_dir dir in
      check
        Alcotest.(pair (list (pair int string)) (list int))
        "catalog and rows unchanged" before
        (Stored_tree.list_all repo, rows repo);
      check Alcotest.(list string) "directory check" [] (Loader.check_runs repo);
      let next = Loader.load_tree repo ~name:"b" fx.tree in
      check Alcotest.int "the next load takes the next id" 1 (Stored_tree.id next.tree);
      check Alcotest.(list string) "directory check after it" [] (Loader.check_runs repo);
      Repo.close repo)

let load_named_leaf repo name =
  Loader.load_tree repo ~name:"b" (Newick.parse (Printf.sprintf "((%s,B)x,C);" name))

(* A root over leaves of these names, in order, built without Newick so
   that names may hold any byte. *)
let leaves_tree names =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root b in
  List.iter (fun name -> ignore (Tree.Builder.add_child ~name b ~parent:root)) names;
  Tree.Builder.finish b

(* The longest all-NUL name a load accepts: [Key.text] writes each NUL
   as two bytes, and the name's directory key, with its 8-byte id or
   chunk number, must fit the directory row of its name block and of
   its species run. *)
let longest_nul_name repo =
  let bound =
    List.fold_left
      (fun acc table ->
        min acc (Crimson_storage.Clustered.max_key (Repo.clustered repo table) [ 0 ]))
      max_int [ Repo.names; Repo.species ]
  in
  (bound - 10) / 2

let test_refused_unknown_species =
  refused_load_writes_nothing (fun repo ->
      let fx = Helpers.figure1 () in
      Loader.load_tree repo ~name:"b"
        ~species:[ ("Bha", "ACGT"); ("nope", "ACGT") ]
        fx.tree)

let test_refused_long_tree_name =
  refused_load_writes_nothing (fun repo ->
      let fx = Helpers.figure1 () in
      Loader.load_tree repo ~name:(String.make 600 'n') fx.tree)

let test_refused_long_node_name =
  refused_load_writes_nothing (fun repo ->
      load_named_leaf repo (String.make (Name_run.max_name + 1) 'x'))

let test_refused_species_twice =
  refused_load_writes_nothing (fun repo ->
      let fx = Helpers.figure1 () in
      Loader.load_tree repo ~name:"b"
        ~species:[ ("Bha", "ACGT"); ("Bha", "TTTT") ]
        fx.tree)

(* A name within [Name_run.max_name] bytes whose escaped directory key
   outgrows a page. *)
let test_refused_escaped_name =
  refused_load_writes_nothing (fun repo ->
      Loader.load_tree repo ~name:"b" (leaves_tree [ String.make 2030 '\000'; "B" ]))

(* Species names up to the longest a load accepts are stored: a long
   name leaves fewer sequence bytes in its rows, never a row too big
   for its page, and its chunks read back whole. *)
let test_long_species_names () =
  let repo = Repo.open_mem () in
  let seq = String.init 5000 (fun i -> "ACGT".[i * 7 mod 4]) in
  List.iteri
    (fun i name ->
      let tree = Printf.sprintf "t%d" i in
      let stored =
        (Loader.load_tree repo ~name:tree ~species:[ (name, seq) ] (leaves_tree [ name; "B" ]))
          .tree
      in
      let what = Printf.sprintf "a %d-byte name" (String.length name) in
      check (Alcotest.option Alcotest.string) (what ^ " reads back") (Some seq)
        (Loader.species_sequence repo stored name);
      check Alcotest.(list string) (what ^ " is listed") [ name ]
        (Loader.species_names repo stored))
    [
      String.make 600 's'; String.make Name_run.max_name 's';
      String.make (longest_nul_name repo) '\000';
    ];
  check Alcotest.(list string) "directory check" [] (Loader.check_runs repo)

(* Node names up to [Name_run.max_name] bytes load, and resolve. *)
let test_long_node_names () =
  let repo = Repo.open_mem () in
  List.iteri
    (fun i bytes ->
      let name = String.make bytes 'x' in
      let stored =
        (Loader.load_tree repo ~name:(Printf.sprintf "t%d" i)
           (Newick.parse (Printf.sprintf "((%s,B)x,C);" name)))
          .tree
      in
      check (Alcotest.option Alcotest.int) (Printf.sprintf "a %d-byte name resolves" bytes)
        (Some 2) (Stored_tree.node_by_name stored name))
    [ 600; Name_run.max_name ];
  check Alcotest.(list string) "directory check" [] (Loader.check_runs repo)

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
   at f = 3. The loader's handle is primed with every node of these
   trees, so the same checks also run on cold handles that must read
   rows on a miss: one view (every touch is a miss) and 64 views. *)
let check_handle_against_memory rng ~name t stored =
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

let check_stored_against_memory repo rng ~name ~f t0 =
  let t, _ = Ops.copy_with_mapping t0 in
  let primed = (Loader.load_tree ~f repo ~name t).tree in
  let cold cache_capacity =
    Stored_tree.open_id ~cache_capacity repo (Stored_tree.id primed)
  in
  List.iter
    (fun (handle, stored) ->
      check_handle_against_memory rng ~name:(name ^ " " ^ handle) t stored)
    [ ("primed", primed); ("cold/1", cold 1); ("cold/64", cold 64) ]

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
  let tiny = Stored_tree.open_id ~cache_capacity:4 repo (Stored_tree.id report.tree) in
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

(* A miss reads its own row and admits nothing else: not the ids after
   it, nor the ids before it, nor neighbouring layer rows. The handle is
   opened cold (the loader's own handle is primed with the whole tree). *)
let test_node_cache_one_row_miss () =
  let repo = Repo.open_mem () in
  let report = Loader.load_tree ~f:3 repo ~name:"spine" (Helpers.caterpillar 600) in
  let id = Stored_tree.id report.tree in
  let cold = Stored_tree.open_id repo id in
  ignore (Stored_tree.view cold 0) (* reads the run directory *);
  let one_row what ~resident touch =
    let c0 = Cost.snapshot () and resident0 = resident () in
    touch ();
    let c1 = Cost.current () in
    check Alcotest.int (what ^ ": one miss") 1 (c1.cache_misses - c0.cache_misses);
    check Alcotest.int (what ^ ": one row decoded") 1 (c1.rows_decoded - c0.rows_decoded);
    check Alcotest.int (what ^ ": one row admitted") (resident0 + 1) (resident ())
  in
  let n = Stored_tree.node_count cold / 2 in
  List.iter
    (fun node ->
      one_row (Printf.sprintf "node %d" node)
        ~resident:(fun () -> Stored_tree.cache_resident cold)
        (fun () -> ignore (Stored_tree.view cold node)))
    [ n; n + 1; n + 2; n - 1 ];
  check Alcotest.bool "multi-layer fixture" true (Stored_tree.layer_count cold > 1);
  let cache = Node_view.create_cache repo ~tree:id ~nodes:(Stored_tree.node_count cold) in
  ignore (Node_view.layer_view cache ~layer:1 0) (* reads the layer's run directory *);
  List.iter
    (fun node ->
      one_row (Printf.sprintf "layer 1 node %d" node)
        ~resident:(fun () -> Node_view.resident cache)
        (fun () -> ignore (Node_view.layer_view cache ~layer:1 node)))
    [ 5; 6; 7; 4 ]

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

(* A name given twice in one call is refused before anything is
   written. *)
let test_append_species_twice () =
  let repo = Repo.open_mem () in
  let stored = (Loader.load_tree repo ~name:"t" (leaves_tree [ "A"; "B" ])).tree in
  (match Loader.append_species repo stored [ ("A", "ACGT"); ("A", "TTTT") ] with
  | exception Loader.Load_error msg ->
      check Alcotest.bool "the message names the species" true (contains msg "\"A\"")
  | _ -> Alcotest.fail "a species given twice was appended");
  check (Alcotest.option Alcotest.string) "A has no sequence" None
    (Loader.species_sequence repo stored "A");
  check Alcotest.(list string) "no species stored" [] (Loader.species_names repo stored);
  check Alcotest.(list string) "directory check" [] (Loader.check_runs repo)

(* The repository keeps each tree's species run after its first lookup:
   a warm lookup pins its own row's page twice (the search and the scan)
   and no other, also for a name that ends a run, however many pages the
   tree has; and an append, a delete or a load that reuses the tree's id
   is seen by every handle. *)
let test_species_lookups_kept () =
  let repo = Repo.open_mem () in
  let names = List.init 2000 (Printf.sprintf "L%04d") in
  let seq_of name = String.make 500 name.[4] ^ name in
  let stored =
    (Loader.load_tree repo ~name:"many" (leaves_tree names)
       ~species:(List.map (fun n -> (n, seq_of n)) names))
      .tree
  in
  ignore (Loader.species_sequence repo stored "L0000");
  List.iter
    (fun name ->
      let before = Cost.pages (Cost.current ()) in
      check (Alcotest.option Alcotest.string) name (Some (seq_of name))
        (Loader.species_sequence repo stored name);
      let pages = Cost.pages (Cost.current ()) - before in
      if pages > 2 then Alcotest.failf "a warm lookup of %s touched %d pages" name pages)
    names;
  Loader.delete_tree repo stored;
  let ab = leaves_tree [ "A"; "B" ] in
  let first = (Loader.load_tree repo ~name:"a" ab ~species:[ ("A", "ACGT") ]).tree in
  let seq = Loader.species_sequence repo in
  check (Alcotest.option Alcotest.string) "A" (Some "ACGT") (seq first "A");
  check (Alcotest.option Alcotest.string) "B before the append" None (seq first "B");
  ignore (Loader.append_species repo first [ ("B", "TTTT") ]);
  check (Alcotest.option Alcotest.string) "B after the append" (Some "TTTT") (seq first "B");
  check (Alcotest.option Alcotest.string) "B on another handle" (Some "TTTT")
    (seq (Stored_tree.open_name repo "a") "B");
  check Alcotest.int "an empty append writes nothing" 0 (Loader.append_species repo first []);
  Loader.delete_tree repo first;
  check (Alcotest.option Alcotest.string) "A after the delete" None (seq first "A");
  let second = (Loader.load_tree repo ~name:"b" ab ~species:[ ("A", "GGGG") ]).tree in
  check Alcotest.int "the id is reused" (Stored_tree.id first) (Stored_tree.id second);
  check (Alcotest.option Alcotest.string) "A of the new tree" (Some "GGGG") (seq second "A");
  check (Alcotest.option Alcotest.string) "B of the new tree" None (seq second "B");
  check Alcotest.(list string) "directory check" [] (Loader.check_runs repo)

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

(* A history row is one heap record: a row past a page is cut to fit,
   result first, then text, then cost, each cut marked, a field shorter
   than its marker skipped; rows that fit are kept whole, and the cut
   rows read back like any other. *)
let test_query_history_oversized () =
  let repo = Repo.open_mem () in
  let marked s = String.ends_with ~suffix:" bytes cut]" s in
  let text = String.make 3000 't' and result = String.make 3000 'r' in
  let id = Repo.record_query repo ~text ~result in
  (match Repo.history_entry repo id with
  | Some q ->
      check Alcotest.string "the text fits once the result is cut" text q.Repo.text;
      check Alcotest.bool "the result is cut, and says so" true (marked q.Repo.result);
      check Alcotest.bool "a prefix of the result is kept" true
        (String.length q.Repo.result > 900
        && String.starts_with ~prefix:(String.sub q.Repo.result 0 900) result)
  | None -> Alcotest.fail "the oversized row was not recorded");
  let big = String.make 9000 'x' in
  let id2 = Repo.record_query repo ~cost:big ~text:big ~result:big in
  (match Repo.history_entry repo id2 with
  | Some q ->
      check Alcotest.bool "result cut" true (marked q.Repo.result);
      check Alcotest.bool "text cut" true (marked q.Repo.text);
      check Alcotest.bool "cost cut" true (marked q.Repo.cost);
      check Alcotest.bool "the cost, cut last, keeps what fits" true
        (String.length q.Repo.cost > 3000)
  | None -> Alcotest.fail "the row of three oversized fields was not recorded");
  let long_text = String.make 5000 't' in
  let id_short = Repo.record_query repo ~text:long_text ~result:"C" in
  (match Repo.history_entry repo id_short with
  | Some q ->
      check Alcotest.string "a result shorter than its marker stays whole" "C"
        q.Repo.result;
      check Alcotest.bool "the text is cut instead" true (marked q.Repo.text)
  | None -> Alcotest.fail "the row with a long text was not recorded");
  let id3 = Repo.record_query repo ~text:"lca(A, B)" ~result:"C" in
  check Alcotest.int "ids continue" (id_short + 1) id3;
  check Alcotest.(list string) "small rows stay whole" [ "lca(A, B)" ]
    (List.filter_map
       (fun q -> if q.Repo.id = id3 then Some q.Repo.text else None)
       (Repo.history repo))

(* The [nodes.by_name] index that format versions before 2 kept. *)
let old_by_name =
  let module Record = Crimson_storage.Record in
  let module Key = Crimson_storage.Key in
  let module Nodes = Crimson_core.Schema.Nodes in
  {
    Table.index_name = "by_name";
    key_of_row =
      (fun row ->
        Key.cat
          [
            Key.int (Record.get_int row Nodes.c_tree);
            Key.text (Record.get_text row Nodes.c_name);
          ]);
    unique = false;
  }

(* The [species] layout of format version 2: no row id, and a
   [by_chunk] B+tree over (tree, name, chunk). *)
let old_species_schema : Crimson_storage.Record.schema =
  Crimson_storage.Record.[| ("tree", Int); ("name", Text); ("chunk", Int); ("seq", Blob) |]

let old_by_chunk =
  let module Record = Crimson_storage.Record in
  let module Key = Crimson_storage.Key in
  {
    Table.index_name = "by_chunk";
    key_of_row =
      (fun row ->
        Key.cat
          [
            Key.int (Record.get_int row 0); Key.text (Record.get_text row 1);
            Key.int (Record.get_int row 2);
          ]);
    unique = true;
  }

(* A repository in any other format version is refused, not migrated:
   one written before versions were recorded (here with the
   pre-telemetry [queries] layout), one of format version 1 (nodes found
   by name through [nodes.by_name], and a run directory without first
   keys), one of format version 2 (sequences found through
   [species.by_chunk]), and one from a newer version. The message names
   both versions; the old rows stay as they were, and so does the log
   beside them: a committed batch is not replayed, and a log of the
   format before CRIMWAL2 is not cleared as torn. *)
let test_query_history_legacy_refused () =
  let legacy = Array.sub Crimson_core.Schema.Queries.schema 0 4 in
  let wal dir = Filename.concat dir "crimson.wal" in
  let committed dir =
    let w = Crimson_storage.Wal.open_path (wal dir) in
    Crimson_storage.Wal.append_entries w
      [ { Crimson_storage.Wal.file = "planted.heap"; page_id = 0;
          image = Crimson_storage.Page.fresh () } ];
    Crimson_storage.Wal.close w
  in
  let v1 dir =
    Out_channel.with_open_bin (wal dir) (fun oc ->
        output_string oc ("CRIMWAL1" ^ String.make 4100 'x'))
  in
  let refused ?(logs = [ committed ]) dir ~found =
    List.iter
      (fun plant ->
        plant dir;
        let log = In_channel.with_open_bin (wal dir) In_channel.input_all in
        List.iter
          (fun mode ->
            (match Repo.open_dir ~mode dir with
            | repo ->
                Repo.close repo;
                Alcotest.failf "a repository of format version %d opened" found
            | exception Repo.Open_error msg ->
                List.iter
                  (fun word ->
                    if not (contains msg word) then
                      Alcotest.failf "%S does not name %s" msg word)
                  [
                    dir; Printf.sprintf "format version %d" found;
                    Printf.sprintf "format version %d" Repo.format_version; "re-load";
                  ]);
            if In_channel.with_open_bin (wal dir) In_channel.input_all <> log then
              Alcotest.failf "a refused open of format version %d changed the log" found)
          [ Crimson_storage.Database.Read_write; Crimson_storage.Database.Read_only ])
      logs
  in
  with_temp_dir (fun dir ->
      (let db = Crimson_storage.Database.open_dir dir in
       let queries =
         Crimson_storage.Database.table db ~name:"queries" ~schema:legacy
           ~indexes:Crimson_core.Schema.Queries.indexes
       in
       ignore
         (Crimson_storage.Table.insert queries
            Crimson_storage.Record.[| VInt 0; VFloat 123.5; VText "lca Bha,Lla"; VText "x" |]);
       Crimson_storage.Database.close db);
      refused dir ~found:0 ~logs:[ committed; v1 ];
      let db = Crimson_storage.Database.open_dir dir in
      check Alcotest.int "old rows kept" 1
        (Crimson_storage.Table.row_count
           (Crimson_storage.Database.table db ~name:"queries" ~schema:legacy
              ~indexes:Crimson_core.Schema.Queries.indexes));
      Crimson_storage.Database.close db);
  with_temp_dir (fun dir ->
      let module Database = Crimson_storage.Database in
      let module Schema = Crimson_core.Schema in
      let module Clustered = Crimson_storage.Clustered in
      let old_directory = Array.sub Clustered.directory_schema 0 6 in
      let tables db =
        ignore
          (Database.table db ~name:"trees" ~schema:Schema.Trees.schema
             ~indexes:Schema.Trees.indexes);
        ( Database.table db ~name:"nodes" ~schema:Schema.Nodes.schema
            ~indexes:[ old_by_name ],
          Database.table db ~name:"node_runs" ~schema:old_directory
            ~indexes:Clustered.directory_indexes )
      in
      (let db = Database.open_dir dir in
       let nodes, _ = tables db in
       ignore
         (Crimson_storage.Table.insert nodes
            Crimson_storage.Record.
              [|
                VInt 0; VInt 0; VInt (-1); VInt 0; VText "root"; VFloat 0.0; VFloat 0.0;
                VInt 0; VInt 0; VInt 0; VInt 1; VInt 0;
              |]);
       Database.set_version db 1;
       Database.close db);
      refused dir ~found:1;
      let db = Database.open_dir dir in
      let nodes, node_runs = tables db in
      check Alcotest.int "version 1 kept" 1 (Database.version db);
      check Alcotest.int "version 1 rows kept" 1 (Crimson_storage.Table.row_count nodes);
      check Alcotest.int "no run rows written" 0 (Crimson_storage.Table.row_count node_runs);
      check Alcotest.bool "no names table created" false
        (List.mem "names" (Database.table_names db));
      Database.close db);
  with_temp_dir (fun dir ->
      let module Database = Crimson_storage.Database in
      let species db =
        Database.table db ~name:"species" ~schema:old_species_schema ~indexes:[ old_by_chunk ]
      in
      (let db = Database.open_dir dir in
       ignore
         (Crimson_storage.Table.insert (species db)
            Crimson_storage.Record.[| VInt 0; VText "Bha"; VInt 0; VBlob "ACGT" |]);
       Database.set_version db 2;
       Database.close db);
      refused dir ~found:2;
      let db = Database.open_dir dir in
      check Alcotest.int "version 2 kept" 2 (Database.version db);
      check Alcotest.int "version 2 rows kept" 1 (Crimson_storage.Table.row_count (species db));
      check Alcotest.(list string) "its index kept" [ "by_chunk" ]
        (Crimson_storage.Table.index_names (species db));
      Database.close db);
  with_temp_dir (fun dir ->
      Repo.close (Repo.open_dir dir);
      let db = Crimson_storage.Database.open_dir dir in
      Crimson_storage.Database.set_version db (Repo.format_version + 1);
      Crimson_storage.Database.close db;
      refused dir ~found:(Repo.format_version + 1))

(* --------------------------- Persistence --------------------------- *)

let test_persistence_across_reopen () =
  with_temp_dir (fun dir ->
      let fx = Helpers.figure1 () in
      (let repo = Repo.open_dir dir in
       let _ =
         Loader.load_tree ~f:2 repo ~name:"figure1" ~species:[ ("Bha", "ACGT") ]
           fx.tree
       in
       ignore
         (Repo.record_query repo ~elapsed_ms:1.5 ~pages:4 ~cost:{|{"pages_read":2}|}
            ~text:"q" ~result:"r");
       Repo.close repo);
      let repo = Repo.open_dir dir in
      let stored = Stored_tree.open_name repo "figure1" in
      check Alcotest.int "nodes" 8 (Stored_tree.node_count stored);
      check Alcotest.int "LCA survives reopen" s_x (Stored_tree.lca stored s_lla s_spy);
      let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
      check Alcotest.int "projection works" 5 (Tree.node_count proj);
      check (Alcotest.option Alcotest.string) "species survive" (Some "ACGT")
        (Loader.species_sequence repo stored "Bha");
      (match Repo.history repo with
      | [ q ] ->
          check (Alcotest.float 1e-9) "elapsed survives" 1.5 q.Repo.elapsed_ms;
          check Alcotest.int "pages survive" 4 q.Repo.pages;
          check Alcotest.string "cost survives" {|{"pages_read":2}|} q.Repo.cost
      | h -> Alcotest.failf "history holds %d rows, not 1" (List.length h));
      check Alcotest.int "ids continue" 1 (Repo.record_query repo ~text:"q2" ~result:"r2");
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

(* [storage.pager.frame_bytes] sums the page buffers held by the open
   pagers' frames. Opening a repository reads at most page 0 of each
   paged file; a query adds one buffer per page it first touches until
   a pool is full, after which each eviction hands its buffer on; closing
   gives every buffer back. *)
let test_frame_bytes () =
  let module Metrics = Crimson_obs.Metrics in
  let frame_pages () =
    match Metrics.find "storage.pager.frame_bytes" with
    | Some (Metrics.Gauge g) ->
        int_of_float (Metrics.Gauge.value g) / Crimson_storage.Page.size
    | Some _ | None -> Alcotest.fail "storage.pager.frame_bytes is not a gauge"
  in
  with_temp_dir (fun dir ->
      let rng = Prng.create 77 in
      let t, _ = Ops.copy_with_mapping (Helpers.random_tree rng 3000) in
      (let repo = Repo.open_dir dir in
       ignore (Loader.load_tree ~f:8 repo ~name:"big" t);
       Repo.close repo);
      let paged_files =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               Filename.check_suffix f ".heap" || Filename.check_suffix f ".idx")
        |> List.length
      in
      let rank = Tree.preorder_rank t in
      let leaves = Tree.leaves t in
      let queries stored =
        for _ = 1 to 40 do
          let a = Prng.int rng (Tree.node_count t) and b = Prng.int rng (Tree.node_count t) in
          ignore (Stored_tree.lca stored rank.(a) rank.(b))
        done;
        ignore
          (Projection.project stored
             (List.init 30 (fun _ -> rank.(leaves.(Prng.int rng (Array.length leaves))))))
      in
      (* Each miss takes a fresh buffer unless it evicted a page. *)
      let grows_by_first_touches what f =
        let f0 = frame_pages () and c0 = Cost.snapshot () in
        f ();
        let c1 = Cost.current () in
        let evictions = c1.pager_evictions - c0.pager_evictions in
        check Alcotest.int what
          (f0 + (c1.pager_misses - c0.pager_misses) - evictions)
          (frame_pages ());
        evictions
      in
      List.iter
        (fun pool_size ->
          let before = frame_pages () in
          let repo = Repo.open_dir ~pool_size dir in
          let opened = frame_pages () - before in
          check Alcotest.bool
            (Printf.sprintf "open holds at most one frame per paged file (%d, %d files)"
               opened paged_files)
            true
            (opened > 0 && opened <= paged_files);
          let stored = Stored_tree.open_name repo "big" in
          let evictions =
            grows_by_first_touches "queries add their first touches" (fun () ->
                queries stored)
          in
          (* The large pools never fill, so every miss was a first
             touch; the small ones fill and then only hand buffers on. *)
          check Alcotest.bool
            (Printf.sprintf "pools of %d fill: %d evictions" pool_size evictions)
            (pool_size = 8) (evictions > 0);
          Stored_tree.invalidate_cache stored;
          ignore (grows_by_first_touches "repeated queries too" (fun () -> queries stored));
          check Alcotest.bool "at most a pool per file" true
            (frame_pages () - before <= paged_files * pool_size);
          Repo.close repo;
          check Alcotest.int "close returns every frame" before (frame_pages ()))
        [ 256; 8 ])

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

(* An overview is one scan of a (tree, layer) group of [summaries]: on a
   handle that has read the group's runs, each call pins each of the
   group's pages once and decodes each cluster once, in [sub] order, at
   every depth. *)
let test_summary_overview_one_scan () =
  let repo = Repo.open_mem ~pool_size:8 () in
  let t, _ = Ops.copy_with_mapping (Helpers.random_tree (Prng.create 23) 3000) in
  let id = Stored_tree.id (Loader.load_tree ~f:3 repo ~name:"big" t).Loader.tree in
  let stored = Stored_tree.open_id repo id in
  let layer_count = Stored_tree.layer_count stored in
  let module Clustered = Crimson_storage.Clustered in
  check Alcotest.bool "layer 0 spans several pages" true
    (Array.length (Clustered.runs (Stored_tree.group stored Repo.summaries ~layer:0)) > 2);
  for depth = 0 to layer_count do
    let group =
      Stored_tree.group stored Repo.summaries ~layer:(Summary.layer_for ~layer_count ~depth)
    in
    let hits = Crimson_obs.Metrics.counter_value "core.summary.hit" in
    let before = Cost.snapshot () in
    let _, entries = Summary.overview stored ~depth in
    let after = Cost.current () in
    let what = Printf.sprintf "depth %d: %s" depth in
    check
      Alcotest.(list int)
      (what "every cluster, in sub order")
      (List.init (Clustered.size group) Fun.id)
      (List.map (fun (e : Summary.entry) -> e.Summary.sub) entries);
    check Alcotest.int (what "one decode per cluster") (List.length entries)
      (after.rows_decoded - before.rows_decoded);
    check Alcotest.int (what "one pin per page")
      (Array.length (Clustered.runs group))
      (Cost.pages after - Cost.pages before);
    check Alcotest.int (what "one hit") (hits + 1)
      (Crimson_obs.Metrics.counter_value "core.summary.hit")
  done

let test_overview_pages_sublinear () =
  (* The acceptance claim: an overview touches only the top of the
     summary table, not o(tree size) pages. PROFILE a small and a large
     tree; page touches must stay flat while the tree grows 16x, and the
     precomputed path must beat a scan of the same tree's node rows. *)
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
  (* The same tree's node rows, scanned once, cost strictly more page
     touches than the precomputed path. *)
  let before = Cost.pages (Cost.current ()) in
  Stored_tree.scan big ~lo:0 ~hi:(Stored_tree.node_count big - 1) (fun v ->
      v.Node_view.node + 1);
  let p_scan = Cost.pages (Cost.current ()) - before in
  check Alcotest.bool
    (Printf.sprintf "precomputed (%d pages) beats a node scan (%d pages)" p_big p_scan)
    true (p_big < p_scan)

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

(* The nodes past [time] whose parent is not, in id order, from the
   in-memory tree and its root distances [rd]. *)
let reference_frontier mem rd ~time =
  List.filter
    (fun v -> rd.(v) > time && (v = 0 || time >= rd.(Tree.parent mem v)))
    (List.init (Tree.node_count mem) Fun.id)

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
    Array.of_list
      ((0.0 :: List.init 8 (fun i -> height *. float_of_int (i + 1) /. 9.0))
      @ [ height +. 1.0 ])
  in
  let nt = Array.length times in
  let leaves = Stored_tree.leaf_count stored in
  let expected time = reference_frontier mem rd ~time in
  let rows () = (Cost.current ()).rows_decoded in
  (* The DFS oracle draws through a handle that holds the whole tree, so
     its walks stay cheap on the 10^4-deep caterpillar. *)
  let oracle = Stored_tree.open_id ~cache_capacity:n repo (Stored_tree.id loaded) in
  (* Each time twice, then once at another time. The handle keeps a
     frontier of at most [capacity] nodes, so the second call reads no
     row exactly when the first one's frontier fits, and then the call
     at the other time must read rows. Every frontier equals the
     reference and every sample the DFS oracle's, draw for draw. *)
  let check_frontiers what handle ~capacity =
    Array.iteri
      (fun i time ->
        let other = times.((i + 1 + Prng.int rng (nt - 1)) mod nt) in
        let kept = List.length (expected time) <= capacity in
        List.iteri
          (fun call time ->
            let r0 = rows () in
            if Sampling.frontier_at handle ~time <> expected time then
              fail "%s: frontier at %g (call %d)" what time call;
            let read = rows () - r0 in
            if (call = 1 && kept <> (read = 0)) || (call = 2 && kept && read = 0) then
              fail "%s: frontier at %g (call %d) read %d rows" what time call read)
          [ time; time; other ];
        let draw (k, time) =
          let seed = Prng.int rng 1_000_000 in
          let draw with_time handle () = with_time handle ~rng:(Prng.create seed) ~k ~time in
          if sampled (draw Sampling.with_time handle) <> sampled (draw dfs_with_time oracle)
          then fail "%s: with_time k=%d at %g" what k time
        in
        List.iter draw [ (1, time); (3, time); ((leaves / 2) + 1, time); (3, other) ])
      times
  in
  Array.iter
    (fun time ->
      if dfs_frontier stored ~time <> expected time then fail "DFS oracle at %g" time)
    times;
  let default = Node_view.default_capacity in
  check_frontiers "loaded handle" loaded ~capacity:default;
  check_frontiers "capacity 1" (Stored_tree.open_id ~cache_capacity:1 repo (Stored_tree.id loaded))
    ~capacity:1;
  let last = times.(nt - 1) in
  ignore (Sampling.frontier_at loaded ~time:last);
  Stored_tree.invalidate_cache loaded;
  let r0 = rows () in
  if Sampling.frontier_at loaded ~time:last <> expected last then
    fail "frontier at %g after invalidate_cache" last;
  if rows () = r0 then fail "invalidate_cache kept the frontier";
  check_frontiers "after invalidate_cache" loaded ~capacity:default;
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

let test_deadline_leaves_no_frontier () =
  (* The deep caterpillar's frontier at half its height is two nodes
     below a scan of half its rows, and a Yule tree's is hundreds of
     nodes spread over the scan: a deadline that expires mid-scan must
     leave no frontier on the handle, whole or partial. *)
  List.iter
    (fun shape ->
      let tree = gen_tree shape ~seed:2006 ~leaves:10_000 in
      let repo = Repo.open_mem () in
      let stored = (Loader.load_tree ~f:8 repo ~name:"t" tree).tree in
      let mem = Loader.fetch_tree stored in
      let rd = Tree.root_distance mem in
      let time = Array.fold_left Float.max 0.0 rd /. 2.0 in
      let expected = reference_frontier mem rd ~time in
      (* A deadline of half a whole scan's time, halved while the call
         still finishes inside it, so it expires partway through the
         scan; each try starts from a handle holding no frontier. *)
      let expired what f =
        Stored_tree.invalidate_cache stored;
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        let rec try_ timeout =
          Stored_tree.invalidate_cache stored;
          match Crimson_obs.Deadline.with_timeout timeout f with
          | Error `Timeout -> ()
          | Ok _ when timeout > 1e-7 -> try_ (timeout /. 2.0)
          | Ok _ -> Alcotest.failf "%s: %s never expired" (shape_name shape) what
        in
        try_ ((Unix.gettimeofday () -. t0) /. 2.0)
      in
      let what = Printf.sprintf "%s: %s after the deadline" (shape_name shape) in
      let frontier () = Sampling.frontier_at stored ~time in
      expired "frontier_at" frontier;
      check Alcotest.(list int) (what "frontier") expected (frontier ());
      let draw () = Sampling.with_time stored ~rng:(Prng.create 5) ~k:12 ~time in
      expired "with_time" draw;
      check Alcotest.(list int) (what "with_time")
        (dfs_with_time stored ~rng:(Prng.create 5) ~k:12 ~time)
        (draw ()))
    [ Caterpillar; Yule ]

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
          Key.cat
            [
              Key.int (Record.get_int row Schema.Nodes.c_tree);
              Key.int (Record.get_int row Schema.Nodes.c_parent);
              Key.int (Record.get_int row Schema.Nodes.c_edge_index);
            ]);
      unique = false;
    }
  in
  let old_indexes = [ old_by_name; by_parent ] in
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
            (* Written before format versions: version 0. *)
            List.iter
              (fun word ->
                check Alcotest.bool (Printf.sprintf "%S names %s" msg word) true
                  (contains msg word))
              [ dir; "format version 0"; "re-load" ]
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
          Key.cat
            [
              Key.int (Record.get_int row Schema.Nodes.c_tree);
              Key.int (Record.get_int row Schema.Nodes.c_node);
            ]);
      unique = true;
    }
  in
  let old_indexes = [ by_node; old_by_name ] in
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
              [ dir; "format version 0"; "re-load" ]
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
   third internal node named: the name run holds leaves and internal
   nodes, and unnamed nodes are left out of it. Some nodes take names
   that stress the run instead: 1-byte names and names of the maximum
   length, both shared by many nodes, so that in larger trees one
   name's entries straddle a block boundary; unique names sharing a
   300-byte prefix; and names with NUL and other non-ASCII bytes. *)
let preorder_named tree =
  let b = Tree.Builder.create ~capacity:(Tree.node_count tree) () in
  let ids = Array.make (Tree.node_count tree) Tree.nil in
  let internal = ref 0 in
  let longest = String.make Name_run.max_name 'z' in
  Array.iteri
    (fun i v ->
      let name =
        match i mod 17 with
        | 3 -> Some longest
        | 7 -> Some (Printf.sprintf "%s%d" (String.make 300 'p') i)
        | 11 -> Some (Printf.sprintf "\xc3\xa9\x00\xff%d" (i mod 5))
        | 13 -> Some (String.make 1 (Char.chr (33 + (i mod 3))))
        | _ ->
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

(* The directory rows of [tree]'s [nodes] group, ascending by first id,
   with their rids, from a full scan of [node_runs]. *)
let run_column = Record.column_index Crimson_storage.Clustered.directory_schema

let node_runs repo ~tree =
  let rows = ref [] in
  Table.scan (Repo.node_runs repo) (fun rid row ->
      if
        Record.get_text row (run_column "table") = "nodes"
        && Record.get_blob row (run_column "group") = Key.int tree
      then rows := (Record.get_int row (run_column "first"), (rid, row)) :: !rows);
  List.map snd (List.sort compare !rows)

(* (first id, first rid) of each of those runs. *)
let directory repo ~tree =
  List.map
    (fun (_, row) -> (Record.get_int row (run_column "first"), Record.get_int row (run_column "rid")))
    (node_runs repo ~tree)

(* Every ordinal's leaf, in a random order so that runs are reached out
   of id order, and nothing past either end. *)
let check_ordinals stored mem =
  let fail fmt =
    Printf.ksprintf (fun s -> Alcotest.failf "tree %d: %s" (Stored_tree.id stored) s) fmt
  in
  let leaves =
    Array.of_list (List.filter (Tree.is_leaf mem) (List.init (Tree.node_count mem) Fun.id))
  in
  let count = Array.length leaves in
  let order = Array.init count Fun.id and rng = Prng.create count in
  for i = count - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let o = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- o
  done;
  Array.iter
    (fun o -> if Stored_tree.leaf_by_ordinal stored o <> leaves.(o) then fail "ordinal %d" o)
    order;
  List.iter
    (fun o ->
      match Stored_tree.leaf_by_ordinal stored o with
      | exception Stored_tree.Unknown_node _ -> ()
      | leaf -> fail "ordinal %d answered %d" o leaf)
    [ -1; count; count + 7 ]

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
  check_ordinals stored mem;
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
  (* Every named node by name, answered with the lowest id carrying the
     name; names next to them in order that no node carries, and the
     empty name, match nothing. *)
  let lowest = Hashtbl.create n in
  for v = n - 1 downto 0 do
    Option.iter (fun name -> Hashtbl.replace lowest name v) (Tree.name mem v)
  done;
  let show name = if String.length name > 40 then String.sub name 0 40 ^ "..." else name in
  Hashtbl.iter
    (fun name v ->
      if Stored_tree.node_by_name stored name <> Some v then
        fail "node_by_name %S (%d bytes) is not %d" (show name) (String.length name) v;
      List.iter
        (fun absent ->
          if (not (Hashtbl.mem lowest absent)) && Stored_tree.node_by_name stored absent <> None
          then fail "node_by_name %S resolved" (show absent))
        [ name ^ "\x00"; String.sub name 0 (String.length name - 1) ])
    lowest;
  if Stored_tree.node_by_name stored "" <> None then fail "the empty name resolved"

(* Name-run entries of one tree. *)
let named_entries repo ~tree =
  let count = ref 0 in
  Name_run.iter (Name_run.open_run repo ~tree) (fun _ _ -> incr count);
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
      (* A cold handle holding the runs but no leaf map: after the
         delete, filling a map meets tombstones and answers nothing. *)
      let orphan = Stored_tree.open_id repo doomed_id in
      ignore (Stored_tree.view orphan 0);
      Loader.delete_tree repo doomed;
      (match Stored_tree.leaf_by_ordinal orphan 0 with
      | exception Stored_tree.Unknown_node _ -> ()
      | leaf -> Alcotest.failf "a deleted tree's ordinal 0 answered %d" leaf);
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
      check Alcotest.(list string) "directory check" [] (Loader.check_runs repo);
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
      Repo.close repo;
      (* Leaf maps filled one run at a time, as ordinals land in them:
         reopened handles holding one view, over an 8-page pool. *)
      let repo = Repo.open_dir ~pool_size:8 dir in
      List.iter
        (fun (s, t) ->
          check_ordinals
            (Stored_tree.open_name ~cache_capacity:1 repo (Stored_tree.name s))
            t)
        loaded;
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

(* ------------------------ Differential suite ------------------------ *)
(* Everything the clustered tables serve — every layer view, sub root
   and summary row, [Summary.overview] at each depth — and the LCAs and
   projections built on them, read back through a reopened repository
   with the minimum pool (8 pages per file) and one-view node caches,
   against the in-memory answers of [Layered], [Summary.build] and
   [Ops.induced_subtree]. The repository must also pass the directory
   check. A failing case shrinks its leaf count. *)

module Layered = Crimson_label.Layered

let differential ~f ~seed t0 =
  let t, _ = Ops.copy_with_mapping t0 in
  let ix = Layered.build ~f t and n = Tree.node_count t in
  let summary = Summary.build ix t in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  with_temp_dir (fun dir ->
      (let repo = Repo.open_dir dir in
       ignore (Loader.load_tree ~f repo ~name:"d" t);
       Repo.close repo);
      let repo = Repo.open_dir ~pool_size:8 dir in
      Fun.protect ~finally:(fun () -> Repo.close repo) @@ fun () ->
      (match Loader.check_runs repo with
      | [] -> ()
      | problems -> fail "directory check: %s" (String.concat "; " problems));
      let stored = Stored_tree.open_name ~cache_capacity:1 repo "d" in
      let cache =
        Node_view.create_cache ~capacity:1 repo ~tree:(Stored_tree.id stored) ~nodes:n
      in
      let lc = Layered.layer_count ix in
      if Stored_tree.layer_count stored <> lc then fail "layer count";
      for layer = 0 to lc - 1 do
        for v = 0 to Layered.layer_node_count ix ~layer - 1 do
          let parent, edge, sub, depth =
            if layer = 0 then
              let v = Stored_tree.view stored v in
              Node_view.(v.parent, v.edge_index, v.sub, v.local_depth)
            else
              let l = Node_view.layer_view cache ~layer v in
              Node_view.(l.l_parent, l.l_edge_index, l.l_sub, l.l_local_depth)
          in
          if
            (parent, edge, sub, depth)
            <> Layered.
                 ( raw_parent ix ~layer v, raw_edge_index ix ~layer v, raw_sub ix ~layer v,
                   raw_local_depth ix ~layer v )
          then fail "layer %d row %d" layer v
        done;
        for s = 0 to Layered.subtree_count ix ~layer - 1 do
          if Node_view.sub_root cache ~layer s <> Layered.raw_sub_root ix ~layer s then
            fail "layer %d sub root %d" layer s
        done
      done;
      (match Node_view.layer_view cache ~layer:(max 1 (lc - 1)) (n + 1) with
      | exception Node_view.Unknown_node _ -> ()
      | _ -> fail "a layer row past the end");
      for depth = 0 to lc do
        let layer, entries = Summary.overview stored ~depth in
        if layer <> Summary.layer_for ~layer_count:lc ~depth then fail "overview(%d) layer" depth;
        if entries <> Array.to_list summary.(layer) then fail "overview(%d) rows" depth
      done;
      let rng = Prng.create seed in
      let leaves = Tree.leaves t in
      for _ = 1 to 60 do
        let a = Prng.int rng n and b = Prng.int rng n in
        if Stored_tree.lca stored a b <> Layered.lca ix a b then fail "lca(%d, %d)" a b
      done;
      List.iter
        (fun k ->
          let k = min k (Array.length leaves) in
          let picked =
            Array.to_list
              (Array.map (fun i -> leaves.(i))
                 (Prng.sample_without_replacement rng ~k ~n:(Array.length leaves)))
          in
          if
            not
              (Tree.equal_unordered ~tolerance:1e-9
                 (Ops.induced_subtree t picked)
                 (Projection.project stored picked))
          then fail "projection of %d leaves" k)
        [ 2; 3; 10 ];
      true)

let arb_differential gen =
  QCheck.make gen
    ~print:(fun (shape, leaves, f, seed) ->
      Printf.sprintf "%s, %d leaves, f=%d, seed %d" (shape_name shape) leaves f seed)
    ~shrink:(fun (shape, leaves, f, seed) ->
      QCheck.Iter.map
        (fun leaves -> (shape, leaves, f, seed))
        (QCheck.Iter.filter (fun l -> l >= 2) (QCheck.Shrink.int leaves)))

let differential_case (shape, leaves, f, seed) =
  differential ~f ~seed (gen_tree shape ~seed ~leaves)

let prop_differential =
  QCheck.Test.make ~name:"clustered rows = in-memory reference" ~count:40
    (arb_differential
       QCheck.Gen.(
         quad
           (oneofl [ Yule; Birth_death; Caterpillar ])
           (int_range 2 300) (oneofl [ 2; 3; 8 ]) (int_bound 1_000_000)))
    differential_case

(* The large cases, one QCheck test each so that a failure shrinks too:
   10^4-deep caterpillars, and bushy trees of 10^4 leaves. *)
let prop_differential_large =
  List.map
    (fun ((shape, leaves, f, _) as case) ->
      QCheck.Test.make ~count:1
        ~name:(Printf.sprintf "%s of %d leaves, f=%d" (shape_name shape) leaves f)
        (arb_differential (QCheck.Gen.return case))
        differential_case)
    [
      (Caterpillar, 10_000, 2, 7); (Caterpillar, 10_000, 8, 8); (Yule, 10_000, 3, 9);
      (Birth_death, 3_000, 8, 10);
    ]

(* Species runs against an in-memory map. Leaf names share long
   prefixes, hold NUL and other non-ASCII bytes, are one byte long, or
   are as long as a load accepts; sequences are empty, exactly one
   chunk, one chunk and a byte, or several chunks, so that one name's
   chunks straddle runs. Part of the set is loaded with the tree and the
   rest appended in one to three batches. After each step the primed or
   appending handle, a reopened one and one over 8-page pools must read
   every sequence back, answer [None] for an internal node, a leaf with
   no sequence and a name not in the tree, list the names, and pass the
   directory check. Deleting the tree must leave no species group. *)

let species_name_gen =
  QCheck.Gen.(
    oneof
      [
        map (String.make 1) (char_range '\000' '\255');
        map2
          (fun n suffix -> String.make n 'p' ^ suffix)
          (int_range 100 1500)
          (string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (int_range 0 2));
        string_size ~gen:(oneofl [ '\000'; '\001'; '\xc3'; '\xa9'; '\xff'; 'a' ]) (int_range 1 12);
        map (fun c -> String.make Name_run.max_name c) (oneofl [ 'm'; '\xe9' ]);
        return (String.make (longest_nul_name (Repo.open_mem ())) '\000');
      ])

let species_seq_gen name =
  let c = Crimson_core.Schema.Species.chunk_bytes name in
  QCheck.Gen.(
    map2
      (fun len salt -> String.init len (fun i -> "ACGT".[((i * 31) + (i / 7) + salt) land 3]))
      (oneof [ return 0; return c; return (c + 1); int_range (2 * c) ((4 * c) + 3) ])
      nat)

let arb_species_case =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8) species_name_gen >>= fun names ->
      let names =
        List.filter
          (fun n -> not (List.mem n [ "inner"; "bare"; "Martian" ]))
          (List.sort_uniq String.compare names)
      in
      flatten_l (List.map (fun n -> map (fun seq -> (n, seq)) (species_seq_gen n)) names)
      >>= fun pairs ->
      shuffle_l pairs >>= fun pairs ->
      int_range 1 3 >>= fun batches ->
      list_repeat batches (int_bound (List.length pairs)) >>= fun cuts ->
      return (pairs, List.sort compare cuts))
  in
  QCheck.make gen ~print:(fun (pairs, cuts) ->
      Printf.sprintf "species [%s], appended from %s"
        (String.concat "; "
           (List.map
              (fun (n, seq) ->
                Printf.sprintf "%S (%d bytes): %d sites"
                  (if String.length n > 12 then String.sub n 0 12 ^ "..." else n)
                  (String.length n) (String.length seq))
              pairs))
        (String.concat ", " (List.map string_of_int cuts)))

let species_case (pairs, cuts) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (* Leaves: every species, then "bare", with no sequence, under an
     internal node named "inner". *)
  let tree =
    let b = Tree.Builder.create () in
    let root = Tree.Builder.add_root b in
    let inner = Tree.Builder.add_child ~name:"inner" b ~parent:root in
    List.iteri
      (fun i (name, _) ->
        ignore (Tree.Builder.add_child ~name b ~parent:(if i mod 2 = 0 then inner else root)))
      pairs;
    ignore (Tree.Builder.add_child ~name:"bare" b ~parent:root);
    Tree.Builder.finish b
  in
  let rec split from = function
    | [] -> [ List.filteri (fun i _ -> i >= from) pairs ]
    | cut :: rest ->
        List.filteri (fun i _ -> i >= from && i < cut) pairs :: split (max from cut) rest
  in
  let steps = split 0 cuts in
  let verify ~what repo stored stored_pairs =
    (match Loader.check_runs repo with
    | [] -> ()
    | problems -> fail "%s: %s" what (String.concat "; " problems));
    List.iter
      (fun (name, seq) ->
        if Loader.species_sequence repo stored name <> Some seq then
          fail "%s: the sequence of %S" what name)
      stored_pairs;
    List.iter
      (fun name ->
        if not (List.mem_assoc name stored_pairs) then
          match Loader.species_sequence repo stored name with
          | None -> ()
          | Some _ -> fail "%s: %S has a sequence" what name)
      ("inner" :: "bare" :: "Martian" :: List.map fst pairs);
    let names = List.sort String.compare (List.map fst stored_pairs) in
    if Loader.species_names repo stored <> names then fail "%s: the species names" what
  in
  with_temp_dir (fun dir ->
      let reopen ?pool_size () =
        let repo = Repo.open_dir ?pool_size dir in
        (repo, Stored_tree.open_name repo "s")
      in
      let after_step i (repo, stored) stored_pairs =
        verify ~what:(Printf.sprintf "step %d" i) repo stored stored_pairs;
        Repo.close repo;
        let repo, stored = reopen () in
        verify ~what:(Printf.sprintf "step %d, reopened" i) repo stored stored_pairs;
        Repo.close repo;
        let ((repo, stored) as small) = reopen ~pool_size:8 () in
        verify ~what:(Printf.sprintf "step %d, 8-page pools" i) repo stored stored_pairs;
        small
      in
      let repo = Repo.open_dir dir in
      let loaded = Loader.load_tree ~f:2 repo ~name:"s" ~species:(List.hd steps) tree in
      let handle = ref (after_step 0 (repo, loaded.tree) (List.hd steps)) in
      let stored_pairs = ref (List.hd steps) in
      List.iteri
        (fun i batch ->
          let repo, stored = !handle in
          ignore (Loader.append_species repo stored batch);
          stored_pairs := !stored_pairs @ batch;
          handle := after_step (i + 1) (repo, stored) !stored_pairs)
        (List.tl steps);
      let repo, stored = !handle in
      Loader.delete_tree repo stored;
      if Crimson_storage.Clustered.groups (Repo.clustered repo Repo.species) <> [] then
        fail "a deleted tree's species group survived";
      (match Loader.check_runs repo with
      | [] -> ()
      | problems -> fail "after the delete: %s" (String.concat "; " problems));
      Repo.close repo;
      true)

let prop_species_runs =
  QCheck.Test.make ~name:"species runs = in-memory reference" ~count:30 arb_species_case
    species_case

let test_forged_run_refused () =
  (* A run pointing one row off reads another node's row: every read
     path must refuse it as corrupt, never answer with that row. On a
     cold handle, [leaf_by_ordinal] meets it while filling the run's leaf
     map. *)
  let repo = Repo.open_mem () in
  ignore (Loader.load_tree ~f:4 repo ~name:"a" (Helpers.caterpillar 300));
  let b = (Loader.load_tree ~f:4 repo ~name:"b" (Helpers.caterpillar 300)).tree in
  (* The run holding the root, shifted back one row. *)
  let rid, row = List.hd (node_runs repo ~tree:(Stored_tree.id b)) in
  let shifted = Array.copy row in
  shifted.(run_column "rid") <- Record.VInt (Record.get_int row (run_column "rid") - 1);
  ignore (Table.update (Repo.node_runs repo) rid shifted);
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
    | "node_runs" -> Repo.node_runs repo
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
  check Alcotest.bool "plans cite indexes" true (!total > 10);
  (* [seq] reads the tree's species run: a directory search, then a scan
     of the name's rows. *)
  match Query_lang.explain stored "seq(Bha)" with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
      let plan = String.concat "\n" plan in
      List.iter
        (fun (what, word) ->
          if not (contains plan word) then Alcotest.failf "seq's plan %S names no %s" plan what)
        [
          ("directory search", "node_runs.by_first"); ("in-memory search", "in memory");
          ("scan of the name's rows", "scan from");
        ]

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
          Alcotest.test_case "refused: unknown species" `Quick test_refused_unknown_species;
          Alcotest.test_case "refused: long tree name" `Quick test_refused_long_tree_name;
          Alcotest.test_case "refused: long node name" `Quick test_refused_long_node_name;
          Alcotest.test_case "refused: species given twice" `Quick test_refused_species_twice;
          Alcotest.test_case "refused: escaped name outgrows its key" `Quick
            test_refused_escaped_name;
          Alcotest.test_case "long species names load" `Quick test_long_species_names;
          Alcotest.test_case "long node names load" `Quick test_long_node_names;
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
          Alcotest.test_case "a miss reads one row" `Quick test_node_cache_one_row_miss;
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
          Alcotest.test_case "append: species given twice" `Quick test_append_species_twice;
          Alcotest.test_case "lookups kept until replaced" `Quick test_species_lookups_kept;
          Alcotest.test_case "nexus load" `Quick test_load_nexus;
        ] );
      ( "history",
        [
          Alcotest.test_case "record and recall" `Quick test_query_history;
          Alcotest.test_case "legacy schema refused" `Quick
            test_query_history_legacy_refused;
          Alcotest.test_case "oversized row cut to a page" `Quick
            test_query_history_oversized;
        ] );
      ( "summary",
        [
          Alcotest.test_case "rollups match brute force" `Quick
            test_summary_matches_brute;
          Alcotest.test_case "overview is one scan" `Quick
            test_summary_overview_one_scan;
          Alcotest.test_case "overview pages stay flat" `Slow
            test_overview_pages_sublinear;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "reopen" `Quick test_persistence_across_reopen;
          Alcotest.test_case "tiny buffer pool" `Slow test_small_pool_queries;
          Alcotest.test_case "frame bytes follow first touches" `Quick test_frame_bytes;
        ] );
      ( "ranges",
        [
          QCheck_alcotest.to_alcotest prop_subtree_ranges;
          Alcotest.test_case "10^4-deep caterpillar" `Quick test_subtree_ranges_deep;
          Alcotest.test_case "a deadline mid-scan leaves no frontier" `Quick
            test_deadline_leaves_no_frontier;
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
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          ((prop_differential :: prop_differential_large) @ [ prop_species_runs ]) );
      ( "explain",
        [
          Alcotest.test_case "plans name real indexes" `Quick
            test_explain_names_real_indexes;
        ] );
      ( "accounting",
        [ Alcotest.test_case "cross-domain sums" `Quick test_cross_domain_accounting ] );
    ]
