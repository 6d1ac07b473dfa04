(* E10 — node view cache: capacity sweep on deep stored trees.

   The decoded-node cache sits between the query layer and the nodes
   table. Capacity 1 with prefetch 1 degenerates to the pre-cache
   behaviour (an index descent per node touch); growing the capacity
   turns repeated root-ward walks into memory reads. Caterpillars are
   the adversarial shape: an LCA near the leaves walks the whole spine,
   so pages touched per query falls dramatically once the spine fits. *)

open Bench_common
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Cost = Crimson_obs.Cost
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection

let pct hits misses =
  let total = hits + misses in
  if total = 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int total)

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
          ("prefetch", T.Right);
          ("lca pages/q", T.Right);
          ("lca hit rate", T.Right);
          ("project pages/q", T.Right);
          ("project hit rate", T.Right);
        ]
  in
  let rows = ref [] in
  let bench name depth =
    let tree = caterpillar depth in
    let repo = Repo.open_mem () in
    let report = Loader.load_tree ~f:8 repo ~name tree in
    let id = Stored_tree.id report.tree in
    let n = Stored_tree.node_count report.tree in
    List.iter
      (fun (capacity, prefetch) ->
        let stored = Stored_tree.open_id ~cache_capacity:capacity ~prefetch repo id in
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
            string_of_int prefetch;
            Printf.sprintf "%.1f" lca_pages;
            pct lca_hits lca_misses;
            Printf.sprintf "%.1f" proj_pages;
            pct proj_hits proj_misses;
          ];
        rows :=
          Json.Obj
            [
              ("tree", Json.Str name);
              ("depth", Json.Num (float_of_int depth));
              ("capacity", Json.Num (float_of_int capacity));
              ("prefetch", Json.Num (float_of_int prefetch));
              ("lca_pages_per_query", Json.Num lca_pages);
              ( "lca_hit_rate",
                Json.Num
                  (if lca_hits + lca_misses = 0 then 0.0
                   else float_of_int lca_hits /. float_of_int (lca_hits + lca_misses)) );
              ("project_pages_per_query", Json.Num proj_pages);
              ( "project_hit_rate",
                Json.Num
                  (if proj_hits + proj_misses = 0 then 0.0
                   else
                     float_of_int proj_hits /. float_of_int (proj_hits + proj_misses)) );
            ]
          :: !rows)
      [ (1, 1); (16, 8); (256, 32); (4096, 32) ];
    T.add_separator table;
    Repo.close repo
  in
  bench "caterpillar 1k" 1_000;
  bench "caterpillar 10k" 10_000;
  T.print table;
  emit_bench ~experiment:"E10" ~fields:[ ("sweep", Json.List (List.rev !rows)) ] ();
  note
    "Capacity 1 / prefetch 1 is the pre-cache baseline: every node touch\n\
     is an index descent. A working-set-sized cache absorbs repeat\n\
     traffic at 95%%+ hit rates and cuts pages per query by an order of\n\
     magnitude on projections. Under-sized caches are the cautionary\n\
     rows: sequential-looking misses trigger prefetch batches that are\n\
     evicted before reuse, costing more pages than the point-lookup\n\
     baseline — capacity must cover the working set for batching to pay."
