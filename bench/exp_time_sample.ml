(* E3 — Sampling with respect to evolutionary time (paper §2.2).

   The worked example (4 species at distance 1 on Figure 1) generalised:
   on stored trees, find the frontier of minimal nodes deeper than t and
   draw k species evenly below it. The frontier is a preorder skip-scan
   of the node rows that jumps over each frontier node's subtree, so it
   reads the cap above the frontier plus the frontier itself. The
   10^4-deep caterpillar is the worst case for that cap. Each row's
   frontier time, mean with_time time and frontier size are emitted as
   [frontier_ms_<tree>_<pct>], [with_time_ms_<tree>_<pct>] and
   [frontier_nodes_<tree>_<pct>]. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Prng = Crimson_util.Prng

let run () =
  section "E3" "sampling w.r.t. evolutionary time on stored trees";
  let table =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("time", T.Right);
          ("frontier", T.Right);
          ("frontier ms", T.Right);
          ("sample k=32 ms", T.Right);
        ]
  in
  let bench label size tree =
    let repo = Repo.open_mem ~pool_size:512 () in
    let stored = (Loader.load_tree ~f:8 repo ~name:label tree).tree in
    let height = Array.fold_left Float.max 0.0 (Tree.root_distance tree) in
    let fields =
      List.concat_map
        (fun pct ->
          let time = float_of_int pct /. 100.0 *. height in
          let frontier, f_ms = time_once (fun () -> Sampling.frontier_at stored ~time) in
          let sample_ms =
            let rng = Prng.create 5 in
            time_mean ~reps:5 (fun () ->
                try ignore (Sampling.with_time stored ~rng ~k:32 ~time)
                with Sampling.Invalid_sample _ -> ())
          in
          T.add_row table
            [
              Printf.sprintf "%s %s" label size;
              Printf.sprintf "%d%% of height" pct;
              string_of_int (List.length frontier);
              Printf.sprintf "%.2f" f_ms;
              Printf.sprintf "%.2f" sample_ms;
            ];
          let field name = Printf.sprintf "%s_%s_%d" name label pct in
          [
            (field "frontier_ms", Json.Num f_ms);
            (field "with_time_ms", Json.Num sample_ms);
            (field "frontier_nodes", Json.Num (float_of_int (List.length frontier)));
          ])
        [ 10; 50; 90 ]
    in
    Repo.close repo;
    fields
  in
  let fields =
    bench "yule" "50k" (yule 50_000)
    @ bench "coalescent" "50k" (coalescent 50_000)
    @ bench "caterpillar" "10k" (caterpillar 10_000)
  in
  T.print table;
  note
    "Early times cut the tree near the root (small frontier, few rows);\n\
     late times approach the leaves. The caterpillar's cap is its spine,\n\
     so its frontier reads grow with the cut depth while the frontier\n\
     stays small. Sampling adds only the per-frontier-subtree ordinal\n\
     draws on top of the frontier scan.";
  emit_bench ~experiment:"E3" ~fields ()
