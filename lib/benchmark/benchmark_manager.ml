module Tree = Crimson_tree.Tree
module Metrics = Crimson_tree.Metrics
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Cost = Crimson_obs.Cost
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Seqevo = Crimson_sim.Seqevo
module Distance = Crimson_recon.Distance
module Nj = Crimson_recon.Nj
module Upgma = Crimson_recon.Upgma
module Parsimony = Crimson_recon.Parsimony

let src = Logs.Src.create "crimson.benchmark" ~doc:"Crimson benchmark manager"

module Log = (val Logs.src_log src : Logs.LOG)

type sample_method =
  | Uniform
  | With_time of float
  | Named of string list

type algorithm = {
  algo_name : string;
  infer : (string * string) list -> Tree.t;
}

let nj_jc = { algo_name = "nj+jc"; infer = (fun seqs -> Nj.reconstruct (Distance.jc69 seqs)) }

let nj_k2p =
  { algo_name = "nj+k2p"; infer = (fun seqs -> Nj.reconstruct (Distance.k2p seqs)) }

let nj_p =
  { algo_name = "nj+p"; infer = (fun seqs -> Nj.reconstruct (Distance.p_distance seqs)) }

let bionj_jc =
  {
    algo_name = "bionj+jc";
    infer = (fun seqs -> Crimson_recon.Bionj.reconstruct (Distance.jc69 seqs));
  }

let upgma_jc =
  { algo_name = "upgma+jc"; infer = (fun seqs -> Upgma.reconstruct (Distance.jc69 seqs)) }

let parsimony = { algo_name = "parsimony"; infer = (fun seqs -> Parsimony.reconstruct seqs) }

let default_algorithms = [ nj_jc; upgma_jc; parsimony ]

type config = {
  sample_method : sample_method;
  sample_k : int;
  sequence_length : int;
  model : Seqevo.model;
  site_rates : Seqevo.site_rates;
  algorithms : algorithm list;
  replicates : int;
  seed : int;
  record_history : bool;
}

let default_config =
  {
    sample_method = Uniform;
    sample_k = 20;
    sequence_length = 500;
    model = Seqevo.JC69;
    site_rates = Seqevo.Uniform;
    algorithms = default_algorithms;
    replicates = 3;
    seed = 42;
    record_history = true;
  }

type outcome = {
  algorithm : string;
  replicate : int;
  taxa : int;
  rf : int;
  rf_normalized : float;
  triplet : float;
  seconds : float;
}

exception Benchmark_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Benchmark_error s)) fmt

let sample_leaves stored config rng =
  match config.sample_method with
  | Uniform -> (
      try Sampling.uniform stored ~rng ~k:config.sample_k
      with Sampling.Invalid_sample msg -> error "sampling failed: %s" msg)
  | With_time t -> (
      try Sampling.with_time stored ~rng ~k:config.sample_k ~time:t
      with Sampling.Invalid_sample msg -> error "sampling failed: %s" msg)
  | Named names -> (
      match Stored_tree.leaf_ids_by_names stored names with
      | Ok ids -> ids
      | Error name -> error "unknown species %S" name)

(* Sequences for the sampled species: stored data when every sampled
   species has some, otherwise simulation on the projected true tree
   (equivalent in distribution to simulating on the full tree and
   restricting, because the substitution process is Markov along paths). *)
let sequences_for repo stored config rng truth names =
  let stored_seqs =
    List.map (fun name -> (name, Loader.species_sequence repo stored name)) names
  in
  if List.for_all (fun (_, s) -> s <> None) stored_seqs then
    List.map (fun (name, s) -> (name, Option.get s)) stored_seqs
  else
    Seqevo.evolve ~rng ~model:config.model ~site_rates:config.site_rates
      ~length:config.sequence_length truth

let run repo stored config =
  if config.algorithms = [] then error "no algorithms to benchmark";
  if config.replicates < 1 then error "need at least one replicate";
  (match config.sample_method with
  | Named names when List.length names < 3 -> error "need at least 3 named species"
  | (Uniform | With_time _) when config.sample_k < 3 ->
      error "sample size must be at least 3 (got %d)" config.sample_k
  | Named _ | Uniform | With_time _ -> ());
  let rng = Prng.create config.seed in
  let outcomes = ref [] in
  let cost = Cost.current () and cost0 = Cost.snapshot () in
  for replicate = 1 to config.replicates do
    let replicate_start = Unix.gettimeofday () in
    let pages_start = Cost.pages cost in
    let leaf_ids = sample_leaves stored config rng in
    let truth =
      try Projection.project stored leaf_ids
      with Projection.Projection_error msg -> error "projection failed: %s" msg
    in
    let names =
      Array.to_list (Tree.leaves truth)
      |> List.map (fun l ->
             match Tree.name truth l with
             | Some s -> s
             | None -> error "sampled species without a name")
    in
    let seqs = sequences_for repo stored config rng truth names in
    List.iter
      (fun algo ->
        let t0 = Unix.gettimeofday () in
        let estimate = algo.infer seqs in
        let seconds = Unix.gettimeofday () -. t0 in
        let rf = Metrics.robinson_foulds_unrooted truth estimate in
        let rf_normalized = Metrics.robinson_foulds_unrooted_normalized truth estimate in
        (* Triplet distance is a rooted metric; root the estimate at its
           midpoint so algorithms with arbitrary output rooting (NJ) are
           not penalised for it. *)
        let rooted_estimate =
          try Crimson_recon.Reroot.midpoint estimate with Invalid_argument _ -> estimate
        in
        let triplet = Metrics.triplet_distance ~rng truth rooted_estimate in
        Log.info (fun m ->
            m "replicate %d, %s: RF=%d (%.3f), triplet=%.3f, %.3fs" replicate
              algo.algo_name rf rf_normalized triplet seconds);
        outcomes :=
          {
            algorithm = algo.algo_name;
            replicate;
            taxa = List.length names;
            rf;
            rf_normalized;
            triplet;
            seconds;
          }
          :: !outcomes)
      config.algorithms;
    if config.record_history then begin
      let text =
        Printf.sprintf "benchmark tree=%s method=%s k=%d len=%d replicate=%d"
          (Stored_tree.name stored)
          (match config.sample_method with
          | Uniform -> "uniform"
          | With_time t -> Printf.sprintf "time=%g" t
          | Named _ -> "named")
          (List.length names) config.sequence_length replicate
      in
      let result =
        String.concat "; "
          (List.filter_map
             (fun (o : outcome) ->
               if o.replicate = replicate then
                 Some (Printf.sprintf "%s rf=%d" o.algorithm o.rf)
               else None)
             !outcomes)
      in
      let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. replicate_start) in
      let pages = Cost.pages cost - pages_start in
      ignore (Repo.record_query repo ~elapsed_ms ~pages ~text ~result)
    end
  done;
  let hits = cost.cache_hits - cost0.cache_hits
  and misses = cost.cache_misses - cost0.cache_misses in
  if hits + misses > 0 then
    Log.info (fun m ->
        m "node cache: %d hits / %d misses (%.1f%% hit rate), %d evictions" hits misses
          (100.0 *. float_of_int hits /. float_of_int (hits + misses))
          (cost.cache_evictions - cost0.cache_evictions));
  List.rev !outcomes

type summary = {
  algorithm : string;
  runs : int;
  mean_rf_normalized : float;
  mean_triplet : float;
  mean_seconds : float;
}

let summarize outcomes =
  let by_algo : (string, outcome list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (o : outcome) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_algo o.algorithm) in
      Hashtbl.replace by_algo o.algorithm (o :: existing))
    outcomes;
  Hashtbl.fold
    (fun algorithm os acc ->
      let n = float_of_int (List.length os) in
      let mean f = List.fold_left (fun a o -> a +. f o) 0.0 os /. n in
      {
        algorithm;
        runs = List.length os;
        mean_rf_normalized = mean (fun o -> o.rf_normalized);
        mean_triplet = mean (fun o -> o.triplet);
        mean_seconds = mean (fun o -> o.seconds);
      }
      :: acc)
    by_algo []
  |> List.sort (fun a b -> compare a.mean_rf_normalized b.mean_rf_normalized)

let report summaries =
  let module T = Crimson_util.Table_printer in
  let t =
    T.create
      ~columns:
        [
          ("algorithm", T.Left);
          ("runs", T.Right);
          ("mean nRF", T.Right);
          ("mean triplet", T.Right);
          ("mean seconds", T.Right);
        ]
  in
  List.iter
    (fun s ->
      T.add_row t
        [
          s.algorithm;
          string_of_int s.runs;
          Printf.sprintf "%.4f" s.mean_rf_normalized;
          Printf.sprintf "%.4f" s.mean_triplet;
          Printf.sprintf "%.4f" s.mean_seconds;
        ])
    summaries;
  T.render t
