(* E7 — The Benchmark Manager end to end (paper §2.2, §3): who
   reconstructs the gold standard best, by sample size and data amount.

   Expected shape (phylogenetics folklore the harness should reproduce):
   more sequence data helps every method; NJ with a model-based
   correction beats uncorrected NJ at higher divergence; UPGMA is
   competitive only because Yule gold standards are clock-like;
   parsimony is orders of magnitude slower. The correction ablation
   (nj+p vs nj+jc) and the clock sensitivity are design points called
   out in DESIGN.md.

   The BENCH line pins what the Benchmark Manager computes: every row's
   mean nRF and triplet distance at full precision, named by k, sites
   and algorithm. Both are ratios of integer counts fixed by the seeds,
   so `bench-diff` treats them as exact. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module B = Crimson_benchmark.Benchmark_manager

(* "nj+jc" -> "nj_jc": algorithm names as field-name parts. *)
let field_name prefix (s : B.summary) =
  prefix ^ String.map (function '+' -> '_' | c -> c) s.algorithm

let exact_fields prefix summaries =
  List.concat_map
    (fun (s : B.summary) ->
      [
        (field_name ("nrf_" ^ prefix) s, Json.Num s.mean_rf_normalized);
        (field_name ("triplet_" ^ prefix) s, Json.Num s.mean_triplet);
      ])
    summaries

let run () =
  section "E7" "benchmark manager: algorithm accuracy vs sample size and data";
  let repo = Repo.open_mem () in
  let gold = Ops.normalize_height ~target:1.2 (yule 2_000) in
  let stored = (Loader.load_tree ~f:8 repo ~name:"gold" gold).tree in
  let table =
    T.create
      ~columns:
        [
          ("k", T.Right);
          ("sites", T.Right);
          ("algorithm", T.Left);
          ("mean nRF", T.Right);
          ("mean triplet", T.Right);
          ("mean s", T.Right);
        ]
  in
  let replicates = ref 0 and run_s = ref 0.0 in
  let fields =
    List.concat_map
      (fun (k, len) ->
        let algorithms =
          if k <= 25 then [ B.nj_jc; B.nj_p; B.bionj_jc; B.upgma_jc; B.parsimony ]
          else [ B.nj_jc; B.nj_p; B.bionj_jc; B.upgma_jc ]
        in
        let config =
          {
            B.default_config with
            sample_k = k;
            sequence_length = len;
            replicates = 3;
            algorithms;
            seed = 1000 + k + len;
            record_history = false;
          }
        in
        let outcomes, ms = time_once (fun () -> B.run repo stored config) in
        replicates := !replicates + config.replicates;
        run_s := !run_s +. (ms /. 1000.0);
        let summaries = B.summarize outcomes in
        List.iter
          (fun (s : B.summary) ->
            T.add_row table
              [
                string_of_int k;
                string_of_int len;
                s.algorithm;
                Printf.sprintf "%.3f" s.mean_rf_normalized;
                Printf.sprintf "%.3f" s.mean_triplet;
                Printf.sprintf "%.4f" s.mean_seconds;
              ])
          summaries;
        T.add_separator table;
        exact_fields (Printf.sprintf "k%d_sites%d_" k len) summaries)
      [ (10, 250); (10, 1000); (25, 250); (25, 1000); (50, 1000) ]
  in
  T.print table;
  Repo.close repo;

  (* Clock-sensitivity ablation: break the molecular clock and watch
     UPGMA fall behind while NJ holds. *)
  note "ablation: breaking the molecular clock (random per-edge rate x0.2..5)";
  let repo = Repo.open_mem () in
  let rng = Crimson_util.Prng.create 77 in
  let nonclock =
    let t = Ops.normalize_height ~target:1.2 (yule 2_000) in
    let b = Tree.Builder.create () in
    let ids = Array.make (Tree.node_count t) Tree.nil in
    Array.iter
      (fun v ->
        let name = Tree.name t v in
        let p = Tree.parent t v in
        if p = Tree.nil then ids.(v) <- Tree.Builder.add_root ?name b
        else begin
          let rate = 0.2 *. Float.pow 25.0 (Crimson_util.Prng.float rng 1.0) in
          ids.(v) <-
            Tree.Builder.add_child ?name
              ~branch_length:(Tree.branch_length t v *. rate)
              b ~parent:ids.(p)
        end)
      (Tree.preorder t);
    Ops.normalize_height ~target:1.2 (Tree.Builder.finish b)
  in
  let stored = (Loader.load_tree ~f:8 repo ~name:"nonclock" nonclock).tree in
  let config =
    {
      B.default_config with
      sample_k = 25;
      sequence_length = 1000;
      replicates = 3;
      algorithms = [ B.nj_jc; B.upgma_jc ];
      seed = 4242;
      record_history = false;
    }
  in
  let summaries = B.summarize (B.run repo stored config) in
  print_string (B.report summaries);
  Repo.close repo;
  emit_bench ~experiment:"E7"
    ~fields:
      ((("replicates_per_s", Json.Num (float_of_int !replicates /. !run_s)) :: fields)
      @ exact_fields "nonclock_k25_sites1000_" summaries)
    ()
