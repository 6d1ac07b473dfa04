(* E9 — Buffer pool size vs query latency ("the portions retrieved by a
   single query are relatively small", paper §3).

   The tree is persisted once, then reopened with varying pool sizes; a
   random LCA workload runs cold (fresh pool) and warm (repeated). If
   the paper's access-pattern claim holds, even a tiny pool serves
   queries at disk-read cost without thrashing, and warm latency is flat
   across pool sizes. *)

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
              ("warm LCA", T.Right);
              ("hit rate", T.Right);
              ("evictions", T.Right);
            ]
      in
      List.iter
        (fun pool_size ->
          let repo = Repo.open_dir ~pool_size dir in
          let stored = Stored_tree.open_name repo "gold" in
          let n = Stored_tree.node_count stored in
          let rng = Prng.create 9 in
          let pairs = Array.init 256 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
          (* Cold pass: every page fetch hits the backend. *)
          let _, cold_ms =
            time_once (fun () ->
                Array.iter (fun (a, b) -> ignore (Stored_tree.lca stored a b)) pairs)
          in
          (* Warm pass over the same working set. *)
          let c0 = Cost.snapshot () in
          let _, warm_ms =
            time_once (fun () ->
                Array.iter (fun (a, b) -> ignore (Stored_tree.lca stored a b)) pairs)
          in
          let c1 = Cost.current () in
          let hits = c1.pager_hits - c0.pager_hits
          and misses = c1.pager_misses - c0.pager_misses
          and evictions = c1.pager_evictions - c0.pager_evictions in
          let hit_rate =
            if hits + misses = 0 then 1.0
            else float_of_int hits /. float_of_int (hits + misses)
          in
          T.add_row table
            [
              string_of_int pool_size;
              Printf.sprintf "%.3f ms" (cold_ms /. 256.0);
              Printf.sprintf "%.3f ms" (warm_ms /. 256.0);
              Printf.sprintf "%.1f%%" (100.0 *. hit_rate);
              string_of_int evictions;
            ];
          Repo.close repo)
        [ 8; 32; 128; 1024; 8192 ];
      T.print table);
  note
    "A pool of a few dozen pages already serves the workload: each LCA\n\
     touches O(f · log depth) index paths, so the working set is tiny\n\
     relative to the tree — the behaviour the paper's storage design\n\
     depends on."
