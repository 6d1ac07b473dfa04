(* E10 — node view cache: capacity sweep on deep stored trees.

   The decoded-node cache sits between the query layer and the nodes
   table, and a miss reads its own row. Capacity 1 degenerates to the
   pre-cache behaviour (a row read per node touch); growing the capacity
   turns repeated root-ward walks into memory reads. Caterpillars are
   the adversarial shape: an LCA near the leaves walks the whole spine,
   so pages touched per query falls dramatically once the spine fits.
   Pages per query are counts fixed by the seeds, emitted as exact
   fields ([lca_pages_q_cat10k_c4096], ...). *)

open Bench_common
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Cost = Crimson_obs.Cost
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection

let hit_rate hits misses =
  if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* Pages per query and node-cache (hits, misses) over [queries] runs of
   one workload, from the cost record's deltas. *)
let measure queries f =
  let c0 = Cost.snapshot () in
  for _ = 1 to queries do
    f ()
  done;
  let c1 = Cost.current () in
  ( float_of_int (Cost.pages c1 - Cost.pages c0) /. float_of_int queries,
    c1.cache_hits - c0.cache_hits,
    c1.cache_misses - c0.cache_misses )

let run () =
  section "E10" "node view cache: pages touched per query vs cache capacity";
  let table =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("capacity", T.Right);
          ("lca pages/q", T.Right);
          ("lca hit rate", T.Right);
          ("project pages/q", T.Right);
          ("project hit rate", T.Right);
        ]
  in
  let fields = ref [] in
  let bench name tag depth =
    let tree = caterpillar depth in
    let repo = Repo.open_mem () in
    let report = Loader.load_tree ~f:8 repo ~name tree in
    let id = Stored_tree.id report.tree in
    let n = Stored_tree.node_count report.tree in
    List.iter
      (fun capacity ->
        let stored = Stored_tree.open_id ~cache_capacity:capacity repo id in
        let queries = 200 in
        (* Root-ward walks: random-pair LCA. *)
        let rng = Prng.create 5 in
        let lca_pages, lca_hits, lca_misses =
          measure queries (fun () ->
              ignore (Stored_tree.lca stored (Prng.int rng n) (Prng.int rng n)))
        in
        (* Induced subtrees: sample-and-project, the benchmark manager's
           inner loop. *)
        let proj_pages, proj_hits, proj_misses =
          measure 50 (fun () ->
              ignore (Projection.project stored (Sampling.uniform stored ~rng ~k:20)))
        in
        T.add_row table
          [
            name;
            string_of_int capacity;
            Printf.sprintf "%.1f" lca_pages;
            Printf.sprintf "%.1f%%" (100.0 *. hit_rate lca_hits lca_misses);
            Printf.sprintf "%.1f" proj_pages;
            Printf.sprintf "%.1f%%" (100.0 *. hit_rate proj_hits proj_misses);
          ];
        let field what = Printf.sprintf "%s_%s_c%d" what tag capacity in
        fields :=
          !fields
          @ [
              (field "lca_pages_q", Json.Num lca_pages);
              (field "lca_hit_rate", Json.Num (hit_rate lca_hits lca_misses));
              (field "project_pages_q", Json.Num proj_pages);
              (field "project_hit_rate", Json.Num (hit_rate proj_hits proj_misses));
            ])
      [ 1; 16; 256; 4096 ];
    T.add_separator table;
    Repo.close repo
  in
  bench "caterpillar 1k" "cat1k" 1_000;
  bench "caterpillar 10k" "cat10k" 10_000;
  T.print table;
  emit_bench ~experiment:"E10" ~fields:!fields ();
  note
    "Capacity 1 is the pre-cache baseline: every node touch reads a row.\n\
     A working-set-sized cache absorbs repeat traffic and cuts pages per\n\
     query by an order of magnitude on deep LCAs. Projection rows count\n\
     the sampled leaves' lookups too: the first ordinal to land in a run\n\
     reads the run's page once to fill its leaf map, then each leaf is\n\
     one node view."
