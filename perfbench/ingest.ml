(* ingest_mixed — writes beside reads on one in-process, durable
   (write-ahead logged) on-disk repository. Each step loads a fresh
   Yule tree with species sequences, ingests one bootstrap replicate
   into a tree collection, then issues a burst of reads: Query_lang.run
   on the new tree and consensus / support / RF matrix on the
   collection. WAL, fsync, B+tree insert and split, the loader and the
   collection dictionary do the work, so a read-path gain that costs
   writes (or the reverse) shows here.

   Collections are capped at a fixed member count and a fresh one
   (new taxa, new alignment) starts when one fills, so per-step read
   cost stays flat however many steps a run completes. Inputs (trees,
   sequences, bootstrap replicates, a new collection's alignment) are
   generated between the timed calls.

   Each step is followed by a timing of the host-speed kernel
   (Perf_util.Host); the JSON result carries times scaled to the
   reference speed (fsync waits included), and the raw ones are printed
   beside them. *)

open Perf_util
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Query_lang = Crimson_core.Query_lang
module Collection = Crimson_collection.Collection
module Consensus = Crimson_recon.Consensus
module Bootstrap = Crimson_recon.Bootstrap
module Nj = Crimson_recon.Nj
module Distance = Crimson_recon.Distance

type shape = {
  step_leaves : int;
  sites : int;
  taxa : int;  (** Taxa per collection. *)
  members : int;  (** Members per collection before a fresh one starts. *)
  queries : int;  (** Query_lang reads per step. *)
  base_leaves : int;  (** Tree loaded at set-up. *)
  setup_reps : int;
}

let shape = function
  | Full ->
      {
        step_leaves = 1000;
        sites = 200;
        taxa = 40;
        members = 16;
        queries = 48;
        base_leaves = 5000;
        setup_reps = 5;
      }
  | Tiny ->
      {
        step_leaves = 60;
        sites = 40;
        taxa = 10;
        members = 4;
        queries = 6;
        base_leaves = 100;
        setup_reps = 2;
      }

let gen_tree rng leaves = Ops.normalize_height (Models.yule ~rng ~leaves ()) ~target:1.0

type coll = {
  handle : Collection.t;
  alignment : (string * string) list;
  mutable trees : Tree.t list;  (** The in-memory members, the consensus reference. *)
}

(* A fresh collection's input: the alignment its replicates resample. *)
let collection_alignment sh rng =
  let truth = Ops.normalize_height (Models.yule ~rng ~leaves:sh.taxa ()) ~target:0.5 in
  Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:sh.sites truth

let new_collection repo alignment idx =
  let handle =
    Collection.create repo ~name:(Printf.sprintf "boot%d" idx) ~taxa:(List.map fst alignment)
  in
  { handle; alignment; trees = [] }

let query_texts sh rng n =
  let name () = Printf.sprintf "T%d" (Prng.int rng n) in
  List.init sh.queries (fun i ->
      match i mod 6 with
      | 0 -> Printf.sprintf "lca(%s, %s)" (name ()) (name ())
      | 1 -> Printf.sprintf "distance(%s, %s)" (name ()) (name ())
      | 2 -> Printf.sprintf "clade(%s, %s, %s)" (name ()) (name ()) (name ())
      | 3 ->
          Prng.sample_without_replacement rng ~k:8 ~n
          |> Array.to_list
          |> List.map (Printf.sprintf "T%d")
          |> String.concat ", " |> Printf.sprintf "project(%s)"
      | 4 -> "sample(8)"
      | _ -> "info()")

type state = {
  dir : string;
  repo : Repo.t;
  rng : Prng.t;
  mutable coll : coll;
  mutable colls : int;
  mutable nodes : int;  (** Tree and member nodes stored. *)
  setup_s : float;  (** Scaled to the reference host speed. *)
}

(* Open a fresh durable repository, load the base tree, start the first
   collection. *)
let setup_once sh cfg r =
  let dir = Filename.concat cfg.work (Printf.sprintf "ingest-%d" r) in
  let (rng, base, repo, coll), setup_s =
    Host.timed_scaled (fun () ->
        let rng = Prng.create cfg.seed in
        let base = gen_tree rng sh.base_leaves in
        let repo = Repo.open_dir ~durable:true dir in
        ignore (Loader.load_tree ~f:8 repo ~name:"base" base);
        (rng, base, repo, new_collection repo (collection_alignment sh rng) 0))
  in
  { dir; repo; rng; coll; colls = 1; nodes = Tree.node_count base; setup_s }

type totals = {
  reads : Samples.t;  (** Every read op of the untraced steps, ms. *)
  reads_at : Samples.t;  (** When each ended. *)
  steps : Samples.t;  (** Timed part of each untraced step, ms. *)
  writes : Samples.t;  (** Its write calls, ms. *)
  steps_at : Samples.t;  (** When each untraced step ended. *)
  traced_steps : Samples.t;
  mutable written : int;  (** Nodes written by untraced steps. *)
  mutable attempted : int;
  mutable failed : int;
}

let rf_ok m n =
  let idx = List.init n Fun.id in
  Array.length m = n
  && Array.for_all (fun row -> Array.length row = n) m
  && List.for_all (fun i -> m.(i).(i) = 0 && List.for_all (fun j -> m.(i).(j) = m.(j).(i)) idx) idx

(* What a step adds to the collections: a bootstrap replicate to the
   current one, or, when that is full, the alignment of the next. *)
type next = Member of Tree.t | Fresh of (string * string) list

(* One step; every write and read is one attempted op. *)
let step sh st tot ~traced idx =
  let sp = Spans.span in
  let check ok =
    tot.attempted <- tot.attempted + 1;
    if not ok then tot.failed <- tot.failed + 1
  in
  (* Inputs, generated outside the timed calls. *)
  let tree = gen_tree st.rng sh.step_leaves in
  let species =
    sp "sim.seqevo" (fun () -> Seqevo.evolve ~rng:st.rng ~model:Seqevo.JC69 ~length:sh.sites tree)
  in
  let next =
    if List.length st.coll.trees >= sh.members then Fresh (collection_alignment sh st.rng)
    else
      Member
        (sp "recon.infer" (fun () ->
             Nj.reconstruct (Distance.jc69 (Bootstrap.resample_columns ~rng:st.rng st.coll.alignment))))
  in
  let texts = query_texts sh st.rng sh.step_leaves in
  let qrng = Prng.create (Prng.int st.rng 1_000_000) in
  let step_ms = ref 0.0 and write_ms = ref 0.0 in
  let call ?(write = false) name f =
    let r, ms = timed (fun () -> sp name f) in
    step_ms := !step_ms +. ms;
    if write then write_ms := !write_ms +. ms
    else if not traced then begin
      Samples.add tot.reads ms;
      Samples.add tot.reads_at (now ())
    end;
    r
  in
  ignore (Spans.next_op ());
  sp "ingest.step" (fun () ->
      let report =
        call ~write:true "core.loader.load_tree" (fun () ->
            Loader.load_tree ~f:8 ~species st.repo ~name:(Printf.sprintf "step%d" idx) tree)
      in
      check (Stored_tree.node_count report.Loader.tree = Tree.node_count tree);
      let member_nodes =
        match next with
        | Member rep ->
            let r = call ~write:true "collection.ingest" (fun () -> Collection.ingest st.coll.handle rep) in
            check (r.Collection.member = List.length st.coll.trees);
            st.coll.trees <- rep :: st.coll.trees;
            Tree.node_count rep
        | Fresh alignment ->
            (* The collection is full: the next one starts (also a write). *)
            st.coll <-
              call ~write:true "collection.create" (fun () ->
                  new_collection st.repo alignment st.colls);
            st.colls <- st.colls + 1;
            check true;
            0
      in
      let written = Tree.node_count tree + member_nodes in
      st.nodes <- st.nodes + written;
      if not traced then tot.written <- tot.written + written;
      let stored = report.Loader.tree in
      List.iter
        (fun text ->
          check
            (Result.is_ok
               (call "core.query_lang.run" (fun () ->
                    Query_lang.run ~rng:qrng ~record:false st.repo stored text))))
        texts;
      if st.coll.trees <> [] then begin
        let c = st.coll.handle in
        let consensus = call "collection.consensus" (fun () -> Collection.consensus c) in
        check
          (Tree.equal_unordered ~weighted:false consensus (Consensus.majority_rule st.coll.trees));
        check (call "collection.support" (fun () -> Collection.support c) <> []);
        let m = call "collection.rf_matrix" (fun () -> Collection.rf_matrix c) in
        check (rf_ok m (List.length st.coll.trees))
      end;
      (* The loaded tree must read back whole. *)
      check (Tree.equal_ordered ~tolerance:1e-9 (Loader.fetch_tree stored) (Ops.copy tree)));
  if traced then Samples.add tot.traced_steps !step_ms
  else begin
    Samples.add tot.steps !step_ms;
    Samples.add tot.writes !write_ms;
    Samples.add tot.steps_at (now ())
  end

let timed_spans =
  [
    "core.loader.load_tree";
    "collection.ingest";
    "collection.create";
    "core.query_lang.run";
    "collection.consensus";
    "collection.support";
    "collection.rf_matrix";
  ]

let run cfg =
  let sh = shape cfg.size in
  (* Earlier set-ups are torn down at once and only their times kept, so
     they leave nothing resident for peak_rss_mb. *)
  let earlier =
    List.init (sh.setup_reps - 1) (fun r ->
        let st = setup_once sh cfg r in
        Repo.close st.repo;
        rm_rf st.dir;
        Gc.compact ();
        st.setup_s)
  in
  let st = setup_once sh cfg (sh.setup_reps - 1) in
  context "nproc %d; workload ingest_mixed; fleet none (in-process); durable repository (WAL on)"
    (nproc ());
  context
    "flush policy: one checkpoint per load_tree, per collection ingest and per collection create \
     (database WAL commit + fsync, then page write-back + fsync); no group commit";
  context
    "step: load a %d-leaf tree with %d-site sequences, ingest one bootstrap replicate (%d taxa, \
     %d members per collection), then %d Query_lang reads + consensus, support, rf_matrix"
    sh.step_leaves sh.sites sh.taxa sh.members sh.queries;
  let tot =
    {
      reads = Samples.create ();
      reads_at = Samples.create ();
      steps = Samples.create ();
      writes = Samples.create ();
      steps_at = Samples.create ();
      traced_steps = Samples.create ();
      written = 0;
      attempted = 0;
      failed = 0;
    }
  in
  let tally = Tally.create () in
  let speed = Host.probe () in
  let deadline = now () +. cfg.seconds in
  (* Runs end when a collection has just been started, so every run
     weighs the collection sizes the same. *)
  let i = ref 0 in
  while now () < deadline || (st.coll.trees <> [] && now () < deadline +. 30.0) do
    let traced = cfg.trace && !i mod 2 = 1 in
    (try
       if traced then begin
         Spans.enabled := true;
         Fun.protect ~finally:(fun () -> Spans.enabled := false) (fun () -> step sh st tot ~traced !i)
       end
       else Tally.around tally (fun () -> step sh st tot ~traced !i)
     with e ->
       tot.attempted <- tot.attempted + 1;
       tot.failed <- tot.failed + 1;
       Printf.eprintf "ingest_mixed: step %d failed: %s\n%!" !i (Printexc.to_string e));
    Host.sample speed;
    incr i
  done;
  Repo.flush st.repo;
  Crimson_obs.Runtime.refresh ();
  let files = dir_files st.dir in
  let repo_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 files in
  let steps = Samples.count tot.steps in
  context "steps: %d untraced%s, %d collections; %d nodes stored in %d repository pages" steps
    (if cfg.trace then Printf.sprintf ", %d traced" (Samples.count tot.traced_steps) else "")
    st.colls st.nodes (repo_bytes / Crimson_storage.Page.size);
  let nreads = Samples.count tot.reads in
  context "reads: %d; p99 has %d samples beyond it" nreads
    (nreads - int_of_float (ceil (0.99 *. float_of_int nreads)));
  let reads = Host.scale speed ~ms:tot.reads ~at:tot.reads_at in
  let writes = Host.scale speed ~ms:tot.writes ~at:tot.steps_at in
  let step_total = Samples.sum (Host.scale speed ~ms:tot.steps ~at:tot.steps_at) in
  let load_rate = float_of_int tot.written /. (Samples.sum writes /. 1000.0) in
  let disk = float_of_int repo_bytes /. float_of_int st.nodes in
  let read_p50 = Samples.percentile reads 50.0 and read_p99 = Samples.percentile reads 99.0 in
  context
    "host speed: kernel p50 %.3f ms (reference %.3f ms); raw: read p50 %.4f ms, p99 %.4f ms, \
     %.0f nodes/s written; scaled below"
    (Samples.percentile speed.Host.ms 50.0) Host.reference_kernel_ms
    (Samples.percentile tot.reads 50.0) (Samples.percentile tot.reads 99.0)
    (float_of_int tot.written /. (Samples.sum tot.writes /. 1000.0));
  named "load_nodes_per_s" "nodes/s" load_rate;
  named "read_ms_p50" "ms" read_p50;
  named "read_ms_p99" "ms" read_p99;
  named "disk_bytes_per_node" "B" disk;
  let metrics =
    if not cfg.trace then
      [
        metric "setup_s" "s" (median (st.setup_s :: earlier));
        metric "peak_rss_mb" "MiB" (peak_rss_mb "self");
        metric "op_ms_p50" "ms" read_p50;
        metric "op_ms_tail" "ms" read_p99;
        metric "ops_per_s" "1/s" (float_of_int steps /. (step_total /. 1000.0));
        metric "load_nodes_per_s" "nodes/s" load_rate;
        metric "disk_bytes_per_node" "B" disk;
      ]
    else begin
      Spans.print_table ();
      let traced = float_of_int (max 1 (Samples.count tot.traced_steps)) in
      let agg = Spans.find in
      let mean name =
        let a = agg name in
        if a.Spans.count = 0 then 0.0 else a.Spans.total_ms /. float_of_int a.Spans.count
      in
      let loaded_knodes = traced *. float_of_int ((2 * sh.step_leaves) - 1) /. 1000.0 in
      let in_calls = List.fold_left (fun acc n -> acc +. (agg n).Spans.total_ms) 0.0 timed_spans in
      let step_p50 = Samples.percentile tot.steps 50.0 in
      let traced_p50 = Samples.percentile tot.traced_steps 50.0 in
      let overhead = 100.0 *. ((traced_p50 /. step_p50) -. 1.0) in
      context "tracing overhead: traced step p50 %.3f ms vs untraced %.3f ms (%+.2f%%)" traced_p50
        step_p50 overhead;
      context
        "span coverage: the timed calls' spans sum to %.1f ms per traced step against %.1f ms per \
         untraced step"
        (in_calls /. traced) (Samples.mean tot.steps);
      print_counter_bases (Tally.get tally) ~ops:steps ~op_name:"untraced steps";
      [
        metric "core.loader.ms_per_knode" "ms"
          ((agg "core.loader.load_tree").Spans.total_ms /. loaded_knodes);
        metric "collection.ingest_ms" "ms" (mean "collection.ingest");
        metric "collection.consensus_ms" "ms" (mean "collection.consensus");
        metric "collection.rf_matrix_ms" "ms" (mean "collection.rf_matrix");
        metric "core.query_lang.ms.p50" "ms" (median (Spans.durations "core.query_lang.run"));
        metric "sim.seqevo.ms" "ms" ((agg "sim.seqevo").Spans.total_ms /. traced);
        metric "recon.infer.ms" "ms" ((agg "recon.infer").Spans.total_ms /. traced);
        metric "trace.span_coverage" "ratio" (in_calls /. traced /. Samples.mean tot.steps);
        metric "trace.overhead_pct" "%" overhead;
      ]
      @ counter_metrics (Tally.get tally) ~ops:steps
      @ runtime_metrics ~minor:tally.Tally.minor ~major:tally.Tally.major ~ops:steps
      @ file_metrics ~files ~nodes:st.nodes
    end
  in
  Repo.close st.repo;
  { attempted = tot.attempted; failed = tot.failed; metrics }
