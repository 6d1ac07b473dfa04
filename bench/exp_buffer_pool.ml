(* E9 — Buffer pool size vs query latency ("the portions retrieved by a
   single query are relatively small", paper §3).

   The tree is persisted once, then reopened with varying pool sizes; a
   random LCA workload runs cold (fresh pool) and warm (repeated). If
   the paper's access-pattern claim holds, even a tiny pool serves
   queries at disk-read cost without thrashing, and warm latency is flat
   across pool sizes. The node cache serves the warm pass whole, so the
   pool shows in the cold pass. Each pool size emits
   [cold_lca_ms_pool<N>] and [warm_lca_ms_pool<N>] (per query), and
   [cold_lca_pages_pool<N>] and [warm_lca_pages_pool<N>] (page accesses
   of each pass, exact counts fixed by the seeds). The hit rate of a
   pass that touches no page is printed as n/a. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Cost = Crimson_obs.Cost
module Prng = Crimson_util.Prng

let run () =
  section "E9" "buffer pool size vs stored-query latency (yule 50k on disk)";
  with_scratch_dir (fun dir ->
      (* Persist once with a generous pool. *)
      let repo = Repo.open_dir ~pool_size:4096 dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"gold" (yule 50_000));
      Repo.close repo;
      let table =
        T.create
          ~columns:
            [
              ("pool pages", T.Right);
              ("cold LCA", T.Right);
              ("cold pages", T.Right);
              ("cold hit rate", T.Right);
              ("cold evictions", T.Right);
              ("warm LCA", T.Right);
              ("warm pages", T.Right);
              ("warm hit rate", T.Right);
            ]
      in
      let fields =
        List.concat_map
          (fun pool_size ->
            let repo = Repo.open_dir ~pool_size dir in
            let stored = Stored_tree.open_name repo "gold" in
            let n = Stored_tree.node_count stored in
            let rng = Prng.create 9 in
            let pairs = Array.init 256 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
            (* Page accesses, hit rate and evictions of one pass over
               the pairs, with its mean time per LCA. *)
            let pass () =
              let c0 = Cost.snapshot () in
              let _, ms =
                time_once (fun () ->
                    Array.iter (fun (a, b) -> ignore (Stored_tree.lca stored a b)) pairs)
              in
              let c1 = Cost.current () in
              let hits = c1.pager_hits - c0.pager_hits
              and misses = c1.pager_misses - c0.pager_misses in
              ( ms /. 256.0,
                Cost.pages c1 - Cost.pages c0,
                (if hits + misses = 0 then "n/a"
                 else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int (hits + misses))),
                c1.pager_evictions - c0.pager_evictions )
            in
            (* Cold pass: a fresh pool and an empty node cache. *)
            let cold_ms, cold_pages, cold_rate, cold_evictions = pass () in
            (* Warm pass over the same working set. *)
            let warm_ms, warm_pages, warm_rate, _ = pass () in
            T.add_row table
              [
                string_of_int pool_size;
                Printf.sprintf "%.3f ms" cold_ms;
                string_of_int cold_pages;
                cold_rate;
                string_of_int cold_evictions;
                Printf.sprintf "%.3f ms" warm_ms;
                string_of_int warm_pages;
                warm_rate;
              ];
            Repo.close repo;
            let field name v = (Printf.sprintf "%s_pool%d" name pool_size, Json.Num v) in
            [
              field "cold_lca_ms" cold_ms;
              field "cold_lca_pages" (float_of_int cold_pages);
              field "warm_lca_ms" warm_ms;
              field "warm_lca_pages" (float_of_int warm_pages);
            ])
          [ 8; 32; 128; 1024; 8192 ]
      in
      T.print table;
      emit_bench ~experiment:"E9" ~fields ());
  note
    "A pool of a few dozen pages already serves the workload: each LCA\n\
     touches O(f · log depth) index paths, so the working set is tiny\n\
     relative to the tree — the behaviour the paper's storage design\n\
     depends on. The cold pass shows the pool; the warm pass is served\n\
     by the node cache and touches no page at any pool size."
