(* gold_benchmark — the paper's own loop (§2.2): repeated
   Benchmark_manager.run replicates, one per call, over two on-disk gold
   standards reopened with a buffer pool far smaller than the trees: a
   bushy Yule tree and a deep caterpillar. Projection, the node cache,
   the B+tree and the pager under eviction do most of the work; the
   server does none.

   Each replicate is followed by a timing of the host-speed kernel
   (Perf_util.Host); the JSON result carries replicate times scaled to
   the reference speed, and the raw ones are printed beside them.

   The traced run interleaves the untraced replicates with replicates
   composed from the same public calls Benchmark_manager.run makes, in
   the same order and with the same seeding, each call wrapped in a
   span. *)

open Perf_util
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Tree_metrics = Crimson_tree.Metrics
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Bm = Crimson_benchmark.Benchmark_manager

type shape = {
  yule_leaves : int;
  cat_leaves : int;
  ks : int array;
  sites : int;
  pool : int;  (** Buffer-pool pages per file after the reopen. *)
  setup_reps : int;
}

let shape = function
  | Full ->
      {
        yule_leaves = 30_000;
        cat_leaves = 10_000;
        (* Not 400: one nj_jc inference over 400 taxa takes 5-7 s on the
           2-core bench host, too few replicates per run for a p90. *)
        ks = [| 25; 50; 100 |];
        sites = 200;
        pool = 32;
        setup_reps = 3;
      }
  | Tiny ->
      {
        yule_leaves = 600;
        cat_leaves = 300;
        ks = [| 5; 10; 20 |];
        sites = 50;
        pool = 8;
        setup_reps = 2;
      }

type standard = {
  label : string;
  mem : Tree.t;  (** Preorder-dense copy: its node ids are the stored ids. *)
  stored : Stored_tree.t;
}

type sample_method = Uniform | Half_height

(* Replicate [j] of a stream: trees alternate, and within each tree the
   sample sizes cycle while the method alternates, so every (k, method)
   pair recurs every 12 replicates. Heights are normalised to 1.0, so
   half the tree height is time 0.5. *)
let plan sh j =
  let nk = Array.length sh.ks in
  let c = j / 2 mod (2 * nk) in
  (j mod 2, sh.ks.(c mod nk), if c mod 2 = 0 then Uniform else Half_height)

(* The gold standards are a fixed, curated repository, as in the paper's
   use: the run's seed picks the replicates, not the trees, so runs on
   different seeds differ only in what they sample. *)
let tree_seed = 2006

let gen_trees sh =
  let rng = Prng.create tree_seed in
  let yule = Ops.normalize_height (Models.yule ~rng ~leaves:sh.yule_leaves ()) ~target:1.0 in
  let cat = Ops.normalize_height (Models.caterpillar ~rng ~leaves:sh.cat_leaves ()) ~target:1.0 in
  [ ("yule", yule); ("caterpillar", cat) ]

type setup = {
  dir : string;
  repo : Repo.t;
  standards : standard array;
  setup_s : float;  (** Scaled to the reference host speed. *)
  load_nodes_per_s : float;  (** Likewise. *)
  nodes : int;
}

(* Generate, load, reopen with the small pool: one full set-up. *)
let setup_once sh cfg r =
  let dir = Filename.concat cfg.work (Printf.sprintf "gold-%d" r) in
  let trees, gen_s = Host.timed_scaled (fun () -> gen_trees sh) in
  let (), load_s =
    Host.timed_scaled (fun () ->
        let repo = Repo.open_dir dir in
        List.iter (fun (name, t) -> ignore (Loader.load_tree ~f:8 repo ~name t)) trees;
        Repo.close repo)
  in
  let (repo, stored), reopen_s =
    Host.timed_scaled (fun () ->
        let repo = Repo.open_dir ~pool_size:sh.pool ~create:false dir in
        (repo, List.map (fun (name, _) -> Stored_tree.open_name repo name) trees))
  in
  let nodes = List.fold_left (fun acc (_, t) -> acc + Tree.node_count t) 0 trees in
  let standards =
    List.map2 (fun (label, t) stored -> { label; mem = Ops.copy t; stored }) trees stored
  in
  {
    dir;
    repo;
    standards = Array.of_list standards;
    setup_s = gen_s +. load_s +. reopen_s;
    load_nodes_per_s = float_of_int nodes /. load_s;
    nodes;
  }

let sample std meth ~rng ~k =
  match meth with
  | Uniform -> Sampling.uniform std.stored ~rng ~k
  | Half_height -> Sampling.with_time std.stored ~rng ~k ~time:0.5

let projection_ok std leaves proj =
  Tree.equal_unordered ~tolerance:1e-6 (Ops.induced_subtree std.mem leaves) proj

let untraced_replicate repo sh std meth ~k ~seed =
  let config =
    {
      Bm.default_config with
      Bm.sample_method = (match meth with Uniform -> Bm.Uniform | Half_height -> Bm.With_time 0.5);
      sample_k = k;
      sequence_length = sh.sites;
      algorithms = [ Bm.nj_jc ];
      replicates = 1;
      seed;
      record_history = false;
    }
  in
  Bm.run repo std.stored config

(* The projection Benchmark_manager.run scored against, recomputed from
   the same seed (sampling draws first from the replicate's generator)
   and checked against the in-memory reference. *)
let check_untraced std meth ~k ~seed outcomes =
  let leaves = sample std meth ~rng:(Prng.create seed) ~k in
  let proj = Projection.project std.stored leaves in
  projection_ok std leaves proj
  && match outcomes with [ o ] -> o.Bm.taxa = k | _ -> false

(* One replicate composed from the calls Benchmark_manager.run makes. *)
let traced_replicate repo sh std meth ~k ~seed =
  ignore (Spans.next_op ());
  Spans.span "benchmark.replicate" (fun () ->
      let rng = Prng.create seed in
      let leaves = Spans.span "core.sampling" (fun () -> sample std meth ~rng ~k) in
      let truth = Spans.span "core.projection" (fun () -> Projection.project std.stored leaves) in
      let names =
        Array.to_list (Tree.leaves truth)
        |> List.map (fun l -> Option.value ~default:"" (Tree.name truth l))
      in
      let stored_seqs =
        Spans.span "core.loader.species_sequence" (fun () ->
            List.map (Loader.species_sequence repo std.stored) names)
      in
      let seqs =
        if List.for_all Option.is_some stored_seqs then
          List.map2 (fun n s -> (n, Option.get s)) names stored_seqs
        else
          Spans.span "sim.seqevo" (fun () ->
              Seqevo.evolve ~rng ~model:Seqevo.JC69 ~site_rates:Seqevo.Uniform
                ~length:sh.sites truth)
      in
      let estimate = Spans.span "recon.infer" (fun () -> Bm.nj_jc.Bm.infer seqs) in
      Spans.span "tree.score" (fun () ->
          ignore (Tree_metrics.robinson_foulds_unrooted truth estimate);
          ignore (Tree_metrics.robinson_foulds_unrooted_normalized truth estimate);
          let rooted =
            try Crimson_recon.Reroot.midpoint estimate with Invalid_argument _ -> estimate
          in
          ignore (Tree_metrics.triplet_distance ~rng truth rooted));
      projection_ok std leaves truth)

let layer_spans =
  [ "core.sampling"; "core.projection"; "sim.seqevo"; "recon.infer"; "tree.score" ]

let run cfg =
  let sh = shape cfg.size in
  (* Earlier set-ups are torn down at once and only their timings kept,
     so they leave nothing resident for peak_rss_mb. *)
  let earlier =
    List.init (sh.setup_reps - 1) (fun r ->
        let s = setup_once sh cfg r in
        Repo.close s.repo;
        rm_rf s.dir;
        Gc.compact ();
        (s.setup_s, s.load_nodes_per_s))
  in
  let s = setup_once sh cfg (sh.setup_reps - 1) in
  let timings = (s.setup_s, s.load_nodes_per_s) :: earlier in
  let files = dir_files s.dir in
  let repo_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 files in
  let page_files = List.length files - 1 in
  context "nproc %d; workload gold_benchmark; fleet none (in-process)" (nproc ());
  Array.iter
    (fun std ->
      context "gold standard %s: %d nodes, %d leaves, height %d edges, %d label layers (f=%d)"
        std.label (Tree.node_count std.mem) (Tree.leaf_count std.mem) (Tree.height std.mem)
        (Stored_tree.layer_count std.stored) (Stored_tree.f std.stored))
    s.standards;
  context
    "buffer pool %d pages per file x %d files = %d pages, against %d repository pages (%d nodes); \
     node cache %d views per tree"
    sh.pool page_files (sh.pool * page_files)
    (repo_bytes / Crimson_storage.Page.size)
    s.nodes Crimson_core.Node_view.default_capacity;
  context "replicate: nj_jc, %d sites, k in {%s} alternating uniform / with_time(0.5 = half height); history off"
    sh.sites (String.concat ", " (Array.to_list (Array.map string_of_int sh.ks)));
  let untraced = Samples.create () and ended = Samples.create () in
  let traced = Samples.create () in
  let speed = Host.probe () in
  let tally = Tally.create () in
  let attempted = ref 0 and failed = ref 0 and traced_leaves = ref 0 in
  let deadline = now () +. cfg.seconds in
  (* Runs end on a whole plan cycle, so every run weighs the (tree, k,
     method) mix the same. *)
  let cycle = (if cfg.trace then 2 else 1) * 4 * Array.length sh.ks in
  let i = ref 0 in
  while now () < deadline || !i mod cycle <> 0 do
    let is_traced = cfg.trace && !i mod 2 = 1 in
    let j = if cfg.trace then !i / 2 else !i in
    let std_i, k, meth = plan sh j in
    let std = s.standards.(std_i) in
    let seed = (((cfg.seed * 7919) + if is_traced then 1 else 0) * 1_000_003) + j in
    incr attempted;
    (match
       if is_traced then begin
         Spans.enabled := true;
         let ok, ms = timed (fun () -> traced_replicate s.repo sh std meth ~k ~seed) in
         Spans.enabled := false;
         Samples.add traced ms;
         traced_leaves := !traced_leaves + k;
         ok
       end
       else begin
         let outcomes, ms =
           Tally.around tally (fun () ->
               timed (fun () -> untraced_replicate s.repo sh std meth ~k ~seed))
         in
         Samples.add untraced ms;
         Samples.add ended (now ());
         check_untraced std meth ~k ~seed outcomes
       end
     with
    | true -> ()
    | false -> incr failed
    | exception e ->
        Spans.enabled := false;
        incr failed;
        Printf.eprintf "gold_benchmark: replicate %d failed: %s\n%!" j (Printexc.to_string e));
    Host.sample speed;
    incr i
  done;
  Crimson_obs.Runtime.refresh ();
  let ops = Samples.count untraced in
  let scaled = Host.scale speed ~ms:untraced ~at:ended in
  let p50 = Samples.percentile scaled 50.0 and p90 = Samples.percentile scaled 90.0 in
  context "replicates: %d untraced%s; p90 has %d samples beyond it" ops
    (if cfg.trace then Printf.sprintf ", %d traced" (Samples.count traced) else "")
    (ops - int_of_float (ceil (0.9 *. float_of_int ops)));
  context
    "host speed: kernel p50 %.3f ms (reference %.3f ms); raw replicate p50 %.3f ms, p90 %.3f ms; \
     scaled below"
    (Samples.percentile speed.Host.ms 50.0) Host.reference_kernel_ms
    (Samples.percentile untraced 50.0) (Samples.percentile untraced 90.0);
  let setup_s = median (List.map fst timings) in
  let load_rate = median (List.map snd timings) in
  let disk = float_of_int repo_bytes /. float_of_int s.nodes in
  let rss = peak_rss_mb "self" in
  named "replicate_ms_p50" "ms" p50;
  named "replicate_ms_p90" "ms" p90;
  let metrics =
    if not cfg.trace then
      [
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MiB" rss;
        metric "op_ms_p50" "ms" p50;
        metric "op_ms_tail" "ms" p90;
        metric "ops_per_s" "1/s" (float_of_int ops /. (Samples.sum scaled /. 1000.0));
        metric "load_nodes_per_s" "nodes/s" load_rate;
        metric "disk_bytes_per_node" "B" disk;
      ]
    else begin
      Spans.print_table ();
      let traced_n = float_of_int (max 1 (Samples.count traced)) in
      let per name = (Spans.find name).Spans.total_ms /. traced_n in
      let layer_sum = List.fold_left (fun acc name -> acc +. per name) 0.0 layer_spans in
      let span_sum = layer_sum +. per "core.loader.species_sequence" in
      let coverage = span_sum /. Samples.mean untraced in
      context
        "span coverage: layer spans sum to %.3f ms per traced replicate against %.3f ms per \
         untraced replicate (ratio %.3f; stated tolerance 0.85-1.15)"
        span_sum (Samples.mean untraced) coverage;
      let untraced_p50 = Samples.percentile untraced 50.0 in
      let overhead = 100.0 *. ((Samples.percentile traced 50.0 /. untraced_p50) -. 1.0) in
      context "tracing overhead: traced p50 %.3f ms vs untraced p50 %.3f ms, both raw (%+.2f%%)"
        (Samples.percentile traced 50.0) untraced_p50 overhead;
      print_counter_bases (Tally.get tally) ~ops ~op_name:"untraced replicates";
      [
        metric "core.projection.ms" "ms" (per "core.projection");
        metric "core.projection.ms_per_leaf" "ms"
          ((Spans.find "core.projection").Spans.total_ms /. float_of_int (max 1 !traced_leaves));
        metric "core.sampling.ms" "ms" (per "core.sampling");
        metric "sim.seqevo.ms" "ms" (per "sim.seqevo");
        metric "recon.infer.ms" "ms" (per "recon.infer");
        metric "tree.score.ms" "ms" (per "tree.score");
        metric "trace.span_coverage" "ratio" coverage;
        metric "trace.overhead_pct" "%" overhead;
      ]
      @ counter_metrics (Tally.get tally) ~ops
      @ runtime_metrics ~minor:tally.Tally.minor ~major:tally.Tally.major ~ops
      @ file_metrics ~files ~nodes:s.nodes
    end
  in
  Repo.close s.repo;
  { attempted = !attempted; failed = !failed; metrics }
