(* E6 — Loading throughput (paper §3 "Loading Data").

   Bulk-load trees (with and without species data) into the relational
   repositories, including layered-index construction and all B+tree
   index maintenance. The f ablation shows the indexing cost knob. Each
   table row is emitted as a [load_nodes_per_s_<row>] headline field. *)

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
        ]
  in
  let bench name ~key tree ~f ~species =
    let repo = Repo.open_mem ~pool_size:2048 () in
    let report = ref None in
    let _, ms =
      time_once (fun () -> report := Some (Loader.load_tree ~f ~species repo ~name tree))
    in
    let r = Option.get !report in
    let rate = float_of_int r.Loader.node_rows /. (ms /. 1000.0) in
    T.add_row table
      [
        name;
        string_of_int r.Loader.node_rows;
        string_of_int r.Loader.species_rows;
        string_of_int f;
        Printf.sprintf "%.2f" (ms /. 1000.0);
        Printf.sprintf "%.0f" rate;
      ];
    Repo.close repo;
    ("load_nodes_per_s_" ^ key, Json.Num rate)
  in
  let t10k = yule 10_000 in
  let t5k = yule 5_000 in
  let seqs =
    Seqevo.evolve ~rng:(Prng.create 3) ~model:Seqevo.JC69 ~length:200 t5k
  in
  (* Rows run in table order: [List.map] applies left to right. *)
  let fields =
    List.map
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
  note
    "Node rows are heap appends in id order: the only per-row index work\n\
     is a by_name entry for each named node, plus one node_runs row per\n\
     heap page. The layers, subtrees and summaries tables carry the rest\n\
     of the B+tree maintenance; f barely matters since higher layers\n\
     shrink geometrically. Species data adds one chunk row per 2 KiB of\n\
     sequence.";
  emit_bench ~experiment:"E6" ~fields ()
