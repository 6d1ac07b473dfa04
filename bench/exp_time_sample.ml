(* E3 — Sampling with respect to evolutionary time (paper §2.2).

   The worked example (4 species at distance 1 on Figure 1) generalised:
   on stored trees, find the frontier of minimal nodes deeper than t and
   draw k species evenly below it. The frontier is a preorder skip-scan
   of the node rows that jumps over each frontier node's subtree, so it
   reads the cap above the frontier plus the frontier itself. The
   10^4-deep caterpillar is the worst case for that cap. The handle
   keeps the last frontier it scanned, so a repeated time skips the
   scan. Each row emits its frontier time [frontier_ms_<tree>_<pct>];
   the mean time of a k = 32 draw that scans first,
   [with_time_ms_<tree>_<pct>] (each call on a handle that has dropped
   its frontier); the mean time of repeated draws at that time,
   [with_time_repeat_ms_<tree>_<pct>]; and the frontier size
   [frontier_nodes_<tree>_<pct>], an exact count. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
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
          ("repeated ms", T.Right);
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
          let rng = Prng.create 5 in
          let sample () =
            try ignore (Sampling.with_time stored ~rng ~k:32 ~time)
            with Sampling.Invalid_sample _ -> ()
          in
          let reps = 5 in
          let sample_ms =
            List.fold_left ( +. ) 0.0
              (List.init reps (fun _ ->
                   Stored_tree.invalidate_cache stored;
                   snd (time_once sample)))
            /. float_of_int reps
          in
          (* The last call left the frontier on the handle. *)
          let repeat_ms = time_mean ~reps sample in
          T.add_row table
            [
              Printf.sprintf "%s %s" label size;
              Printf.sprintf "%d%% of height" pct;
              string_of_int (List.length frontier);
              Printf.sprintf "%.2f" f_ms;
              Printf.sprintf "%.2f" sample_ms;
              Printf.sprintf "%.2f" repeat_ms;
            ];
          let field name = Printf.sprintf "%s_%s_%d" name label pct in
          [
            (field "frontier_ms", Json.Num f_ms);
            (field "with_time_ms", Json.Num sample_ms);
            (field "with_time_repeat_ms", Json.Num repeat_ms);
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
     draws on top of the frontier scan, and a repeated time reuses the\n\
     frontier the handle kept, so it pays for the draws alone.";
  emit_bench ~experiment:"E3" ~fields ()
