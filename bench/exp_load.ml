(* E6 — Loading throughput (paper §3 "Loading Data").

   Bulk-load trees (with and without species data) into the relational
   repositories, including layered-index construction and all index and
   run-directory maintenance. The f ablation shows the indexing cost
   knob. Each table row is emitted as a [load_nodes_per_s_<row>]
   headline field, with the major-heap words its load allocated per node
   ([load_major_words_per_node_<row>], from [Gc.counters], which counts
   promoted words too) beside it. Three rows, one with sequences, are
   loaded again into an on-disk repository, and the pages of its paged
   files after close are emitted as exact [disk_pages_<row>] fields, so
   a layout change that grows the store fails bench-diff. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng

let run () =
  section "E6" "load throughput into the repositories";
  let table =
    T.create
      ~columns:
        [
          ("workload", T.Left);
          ("nodes", T.Right);
          ("species rows", T.Right);
          ("f", T.Right);
          ("seconds", T.Right);
          ("nodes/s", T.Right);
          ("major words/node", T.Right);
        ]
  in
  let bench name ~key tree ~f ~species =
    let repo = Repo.open_mem ~pool_size:2048 () in
    let report = ref None in
    let _, _, major0 = Gc.counters () in
    let _, ms =
      time_once (fun () -> report := Some (Loader.load_tree ~f ~species repo ~name tree))
    in
    let _, _, major1 = Gc.counters () in
    let r = Option.get !report in
    let rate = float_of_int r.Loader.node_rows /. (ms /. 1000.0) in
    let major = (major1 -. major0) /. float_of_int r.Loader.node_rows in
    T.add_row table
      [
        name;
        string_of_int r.Loader.node_rows;
        string_of_int r.Loader.species_rows;
        string_of_int f;
        Printf.sprintf "%.2f" (ms /. 1000.0);
        Printf.sprintf "%.0f" rate;
        Printf.sprintf "%.0f" major;
      ];
    Repo.close repo;
    [
      ("load_nodes_per_s_" ^ key, Json.Num rate);
      ("load_major_words_per_node_" ^ key, Json.Num major);
    ]
  in
  (* Pages of every heap and index file of a repository holding only
     [tree] and its [species], after close. *)
  let disk_pages ~key tree ~f ~species =
    with_scratch_dir (fun dir ->
        let repo = Repo.open_dir dir in
        ignore (Loader.load_tree ~f ~species repo ~name:key tree);
        Repo.close repo;
        let pages =
          Array.fold_left
            (fun acc file ->
              if Filename.check_suffix file ".heap" || Filename.check_suffix file ".idx"
              then acc + ((Unix.stat (Filename.concat dir file)).Unix.st_size / Crimson_storage.Page.size)
              else acc)
            0 (Sys.readdir dir)
        in
        note "%s: %d pages on disk" key pages;
        ("disk_pages_" ^ key, Json.Num (float_of_int pages)))
  in
  let t10k = yule 10_000 in
  let t5k = yule 5_000 in
  let seqs =
    Seqevo.evolve ~rng:(Prng.create 3) ~model:Seqevo.JC69 ~length:200 t5k
  in
  (* Rows run in table order: [List.map] applies left to right. *)
  let fields =
    List.concat_map
      (fun (name, key, tree, f, species) -> bench name ~key tree ~f ~species)
      [
        ("yule 10k, structure", "yule10k_f4", t10k, 4, []);
        ("yule 10k, structure", "yule10k_f8", t10k, 8, []);
        ("yule 10k, structure", "yule10k_f16", t10k, 16, []);
        ("yule 50k, structure", "yule50k_f8", yule 50_000, 8, []);
        ("caterpillar 50k, structure", "caterpillar50k_f8", caterpillar 50_000, 8, []);
        ("yule 5k + 200bp sequences", "yule5k_seq_f8", t5k, 8, seqs);
      ]
  in
  T.print table;
  let pages =
    List.map
      (fun (key, tree, species) -> disk_pages ~key tree ~f:8 ~species)
      [
        ("yule10k_f8", t10k, []); ("caterpillar50k_f8", caterpillar 50_000, []);
        ("yule5k_seq_f8", t5k, seqs);
      ]
  in
  note
    "Node, layer, subtree and summary rows are heap appends in id order,\n\
     with one node_runs row per heap page of each, and the named nodes are\n\
     sorted once and written as front-coded name blocks, about one page per\n\
     few hundred names: no table takes a per-row index entry. f barely\n\
     matters since higher layers shrink geometrically. Species data adds\n\
     one row per chunk of at most 2 KiB, sorted by (name, chunk) into the\n\
     tree's species run, and one node_runs row per heap page of them.";
  emit_bench ~experiment:"E6" ~fields:(fields @ pages) ()
