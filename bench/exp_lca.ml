(* E2 — LCA query cost: naive parent walk vs flat Dewey vs layered.

   Paper claim (§2.1): Dewey labels answer LCA by longest common prefix,
   but on deep trees the labels themselves defeat the purpose; the
   layered scheme keeps per-query work at O(f · log_f depth). The naive
   walk is the no-index baseline. Flat labels are only materialisable on
   shallow trees — the "infeasible" cells are the point, since storing
   them costs O(n · depth) memory. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Dewey = Crimson_label.Dewey
module Layered = Crimson_label.Layered
module Prng = Crimson_util.Prng

(* Materialised flat labels cost Σ depth(v) ints; refuse above a budget. *)
let flat_feasible tree =
  let depths = Tree.depths tree in
  let total = Array.fold_left (fun acc d -> acc + d) 0 depths in
  total <= 20_000_000

let rec run () =
  section "E2" "LCA latency: naive walk vs flat Dewey vs layered (f ablation)";
  let table =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("depth", T.Right);
          ("naive walk", T.Right);
          ("flat Dewey", T.Right);
          ("layered f=4", T.Right);
          ("layered f=8", T.Right);
          ("layered f=32", T.Right);
        ]
  in
  let bench name tree =
    let n = Tree.node_count tree in
    let rng = Prng.create 1 in
    let pairs = Array.init 4096 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
    let cursor = ref 0 in
    let next () =
      let p = pairs.(!cursor land 4095) in
      incr cursor;
      p
    in
    let naive =
      ns_per_op (fun () ->
          let a, b = next () in
          ignore (Ops.naive_lca tree a b))
    in
    let flat =
      if not (flat_feasible tree) then "infeasible"
      else begin
        let labels = Dewey.assign tree in
        pretty_ns
          (ns_per_op (fun () ->
               let a, b = next () in
               ignore (Dewey.lca labels.(a) labels.(b))))
      end
    in
    let layered f =
      let ix = Layered.build ~f tree in
      pretty_ns
        (ns_per_op (fun () ->
             let a, b = next () in
             ignore (Layered.lca ix a b)))
    in
    T.add_row table
      [
        name;
        string_of_int (Tree.height tree);
        pretty_ns naive;
        flat;
        layered 4;
        layered 8;
        layered 32;
      ]
  in
  bench "yule 100k" (yule 100_000);
  bench "coalescent 100k" (coalescent 100_000);
  T.add_separator table;
  bench "caterpillar 1k" (caterpillar 1_000);
  bench "caterpillar 10k" (caterpillar 10_000);
  bench "caterpillar 100k" (caterpillar 100_000);
  T.print table;
  note
    "On shallow trees every method is cheap. As depth grows the naive walk\n\
     degrades linearly and flat labels become unmaterialisable, while the\n\
     layered index stays flat — larger f trades label size for fewer layers.";
  stored_pages ()

(* Disk-backed counterpart: the same LCA workload against a stored tree,
   with and without the node view cache. The uncached handle (capacity 1,
   prefetch 1) reproduces the pre-cache access pattern — one index
   descent per node touch. *)
and stored_pages () =
  let module Repo = Crimson_core.Repo in
  let module Stored_tree = Crimson_core.Stored_tree in
  let module Cost = Crimson_obs.Cost in
  let module Loader = Crimson_core.Loader in
  let depth = 10_000 in
  let repo = Repo.open_mem () in
  let report = Loader.load_tree ~f:8 repo ~name:"deep" (caterpillar depth) in
  let id = Stored_tree.id report.tree in
  let n = Tree.node_count (caterpillar depth) in
  let queries = 100 in
  (* One pass of the workload; the rng is re-seeded per pass, so a second
     pass replays the same queries — the repeat-traffic case a long-lived
     handle actually serves. *)
  let pass stored =
    let rng = Prng.create 9 in
    let p0 = Cost.pages (Cost.current ()) in
    for _ = 1 to queries do
      ignore (Stored_tree.lca stored (Prng.int rng n) (Prng.int rng n))
    done;
    Cost.pages (Cost.current ()) - p0
  in
  let uncached_handle = Stored_tree.open_id ~cache_capacity:1 ~prefetch:1 repo id in
  let _ = pass uncached_handle in
  let uncached = pass uncached_handle in
  let c0 = Cost.snapshot () in
  let cached_handle = Stored_tree.open_id repo id in
  let cold = pass cached_handle in
  let steady = pass cached_handle in
  let c1 = Cost.current () in
  let hits = c1.cache_hits - c0.cache_hits in
  let total = hits + c1.cache_misses - c0.cache_misses in
  note
    "stored caterpillar depth %d, %d LCA queries per pass:\n\
    \  pages touched without cache:      %d per pass (capacity 1)\n\
    \  pages touched with cache, cold:   %d\n\
    \  pages touched with cache, steady: %d (%.1f%% lifetime hit rate)" depth
    queries uncached cold steady
    (if total = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int total);
  if steady >= uncached then
    note "WARNING: node view cache did not reduce pages touched";
  Repo.close repo
