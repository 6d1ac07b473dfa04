(* Crimson experiment harness.

   One experiment per table in DESIGN.md §4 / EXPERIMENTS.md. Running
   with no arguments executes everything; passing experiment ids (e.g.
   "E1 E7 micro") runs a subset. The paper is a demonstration without
   numeric tables, so these experiments quantify each claim its text
   makes; EXPERIMENTS.md records claim vs measurement. *)

let experiments =
  [
    ("E1", "label size: flat Dewey vs layered", Exp_label_size.run);
    ("E2", "LCA latency across methods and depths", Exp_lca.run);
    ("E3", "sampling w.r.t. evolutionary time", Exp_time_sample.run);
    ("E4", "projection latency vs sample size", Exp_projection.run);
    ("E5", "tree pattern match latency", Exp_pattern.run);
    ("E6", "load throughput", Exp_load.run);
    ("E7", "benchmark manager: algorithm accuracy", Exp_benchmark_manager.run);
    ("E8", "indexed vs path-based structure queries", Exp_vs_path.run);
    ("E9", "buffer pool size vs query latency", Exp_buffer_pool.run);
    ("E10", "node view cache: capacity sweep", Exp_node_cache.run);
    ("E11", "query service: concurrent clients over a served repository", Exp_server.run);
    ("E12", "WAL recovery: replay time vs committed batch size", Exp_recovery.run);
    ("E13", "profiler overhead: plain queries vs full profiling", Exp_profile.run);
    ("E14", "worker fleet: throughput grid and open-loop latency", Exp_workers.run);
    ("E15", "collection store: dictionary size and bulk-query latency", Exp_collection.run);
    ("E16", "health plane: closed-loop overhead with the endpoint scraped live", Exp_obs.run);
    ("E17", "gateway: overview latency vs tree size, summary hits, 304 rate", Exp_gateway.run);
    ("micro", "bechamel micro-benchmarks", Micro.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> List.map String.lowercase_ascii ids
    | _ -> []
  in
  let selected =
    if requested = [] then experiments
    else
      List.filter
        (fun (id, _, _) -> List.mem (String.lowercase_ascii id) requested)
        experiments
  in
  if selected = [] then begin
    prerr_endline "unknown experiment id; available:";
    List.iter (fun (id, doc, _) -> Printf.eprintf "  %-6s %s\n" id doc) experiments;
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, _, run) ->
      (* Per-experiment metric snapshot: zero the registry, run, emit a
         BENCH JSON line carrying the accumulated telemetry. *)
      Bench_common.reset_metrics ();
      let e0 = Unix.gettimeofday () in
      run ();
      Bench_common.emit_bench ~experiment:id
        ~fields:
          [ ("seconds", Bench_common.Json.Num (Unix.gettimeofday () -. e0)) ]
        ())
    selected;
  Printf.printf "\ntotal experiment time: %.1f s\n" (Unix.gettimeofday () -. t0)
