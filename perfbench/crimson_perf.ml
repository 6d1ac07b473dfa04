(* The repository benchmark's executable:

     crimson_perf --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

   --seconds has no default: run.py passes BENCHMARK.json's run_seconds
   unless told otherwise.

   It prints context lines ("# ..."), the workload's numbers under their
   own names, and as its last line one JSON object with the keys
   correct, attempted, failed and metrics: every end-to-end metric when
   untraced, every per-layer metric when traced. A per-layer metric
   whose layer the workload never calls reads 0. *)

open Perf_util

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("ops_per_s", "1/s");
    ("load_nodes_per_s", "nodes/s");
    ("disk_bytes_per_node", "B");
  ]

let per_layer =
  [
    ("core.projection.ms", "ms");
    ("core.projection.ms_per_leaf", "ms");
    ("core.sampling.ms", "ms");
    ("sim.seqevo.ms", "ms");
    ("recon.infer.ms", "ms");
    ("tree.score.ms", "ms");
    ("core.node_cache.hit_ratio", "ratio");
    ("core.node_cache.miss_per_op", "count");
    ("storage.pager.hit_ratio", "ratio");
    ("storage.pager.miss_per_op", "count");
    ("storage.pager.eviction_per_op", "count");
    ("storage.pager.write_per_op", "count");
    ("storage.btree.find_per_op", "count");
    ("storage.btree.node_read_per_op", "count");
    ("storage.btree.split_per_op", "count");
    ("storage.wal.fsync_per_op", "count");
    ("storage.wal.pages_per_op", "count");
    ("core.summary.hit_ratio", "ratio");
    ("coll.dict.hit_ratio", "ratio");
    ("gateway.not_modified_ratio", "ratio");
    ("server.request_ms.p50", "ms");
    ("server.request_ms.p99", "ms");
    ("server.overhead_ms.wire", "ms");
    ("server.overhead_ms.http", "ms");
    ("core.query_lang.ms.p50", "ms");
    ("gateway.http.feed_us", "us");
    ("gateway.http.render_us", "us");
    ("core.loader.ms_per_knode", "ms");
    ("collection.ingest_ms", "ms");
    ("collection.consensus_ms", "ms");
    ("collection.rf_matrix_ms", "ms");
    ("runtime.minor_words_per_op", "words");
    ("runtime.major_words_per_op", "words");
    ("trace.span_coverage", "ratio");
    ("trace.overhead_pct", "%");
  ]
  @ List.map (fun f -> ("storage.file_bytes_per_node." ^ f, "B")) (repo_files @ [ "other" ])

(* Every catalog metric in catalog order; the workload must not report
   a name or unit the catalog does not list. *)
let complete catalog (reported : metric list) =
  List.iter
    (fun m ->
      match List.assoc_opt m.name catalog with
      | Some u when u = m.unit_ -> ()
      | _ -> failwith (Printf.sprintf "metric %s (%s) is not in the catalog" m.name m.unit_))
    reported;
  List.map
    (fun (name, unit_) ->
      let v =
        match List.find_opt (fun m -> m.name = name) reported with
        | Some m when Float.is_finite m.value -> m.value
        | _ -> 0.0
      in
      (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
    catalog

let workloads =
  [ ("gold_benchmark", Gold.run); ("served_mix", Served.run); ("ingest_mixed", Ingest.run) ]

let () =
  (match Sys.argv with
  | [| _; "--serve"; dir; sock; hsock |] ->
      Served.serve ~dir ~sock ~hsock ~trace_out:None;
      exit 0
  | [| _; "--serve"; dir; sock; hsock; trace_out |] ->
      Served.serve ~dir ~sock ~hsock ~trace_out:(Some trace_out);
      exit 0
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let size = ref Full in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " input size (tiny for the self-test)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "crimson_perf [options]";
  if not (!seconds > 0.0) then begin
    prerr_endline "crimson_perf: --seconds S (S > 0) is required";
    exit 2
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let root = ".perfbench_work" in
  let work = Filename.concat root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p work;
  let cfg =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; size = !size; work }
  in
  match Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> run cfg) with
  | exception e ->
      Printf.eprintf "%s failed: %s\n%!" !workload (Printexc.to_string e);
      exit 1
  | r ->
      if cfg.trace then Spans.write (Filename.concat root ("spans-" ^ !workload ^ ".jsonl"));
      let catalog = if cfg.trace then per_layer else end_to_end in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (r.failed = 0));
                ("attempted", Json.Num (float_of_int r.attempted));
                ("failed", Json.Num (float_of_int r.failed));
                ("metrics", Json.Obj (complete catalog r.metrics));
              ]))
