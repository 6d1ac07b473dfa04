(* E4 — Tree projection latency vs sample size (paper §1, §2.2).

   Projection is Crimson's workhorse: sort the sampled leaves in
   preorder, take LCAs of adjacent pairs, hang everything off an
   ancestor stack. Stored node ids are dense preorder ranks, so the sort
   is an integer sort and each ancestor test reads two cached node
   views; the k-1 LCAs are the only layered-label work. Cost should
   scale roughly linearly in k, independent of the full tree size. Each
   k's mean time is emitted as [projection_ms_k<k>], which
   [make bench-diff] compares against the committed baseline. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Prng = Crimson_util.Prng

let run () =
  section "E4" "projection latency vs sample size (stored yule 100k)";
  let repo = Repo.open_mem ~pool_size:1024 () in
  let tree = yule 100_000 in
  let stored, load_ms = time_once (fun () -> (Loader.load_tree ~f:8 repo ~name:"gold" tree).tree) in
  note "loaded 100k-leaf gold standard in %.1f s" (load_ms /. 1000.0);
  let table =
    T.create
      ~columns:
        [
          ("k", T.Right);
          ("projection ms", T.Right);
          ("ms per species", T.Right);
          ("result nodes", T.Right);
        ]
  in
  let fields =
    List.map
      (fun k ->
        let rng = Prng.create (100 + k) in
        let sample = Sampling.uniform stored ~rng ~k in
        let proj = ref (Projection.project stored sample) in
        let ms = time_mean ~reps:3 (fun () -> proj := Projection.project stored sample) in
        T.add_row table
          [
            string_of_int k;
            Printf.sprintf "%.2f" ms;
            Printf.sprintf "%.4f" (ms /. float_of_int k);
            string_of_int (Tree.node_count !proj);
          ];
        (Printf.sprintf "projection_ms_k%d" k, Json.Num ms))
      [ 10; 50; 100; 500; 1000; 5000 ]
  in
  T.print table;
  Repo.close repo;
  note
    "Per-species cost stays well under a millisecond at every k: the sort\n\
     is an integer sort on preorder ids, so the stored-index work is the\n\
     k-1 adjacent-pair LCAs plus a few cached views per projection node.\n\
     It rises once the LCA paths stop fitting the node cache. Projection\n\
     touches O(k) index paths of the stored tree and never the other 100k\n\
     species — the access pattern the paper designed the repository\n\
     around.";
  emit_bench ~experiment:"E4" ~fields ()
