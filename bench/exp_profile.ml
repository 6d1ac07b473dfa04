(* E13 — profiler overhead on the E11 query mix.

   The charge points sit on the hottest storage paths (pager frame
   lookups, B+tree finds, row decodes). Each bumps one field of the
   calling domain's cost record, always: that is all a plain query
   (Query_lang.run) pays. A profiled query (Query_lang.profile) also
   snapshots the record and the GC counters at every stage boundary.
   This experiment reports qps for both plus the profiled overhead, all
   in-process so the numbers isolate the query engine from socket and
   fork noise. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Query_lang = Crimson_core.Query_lang
module Profile = Crimson_obs.Profile

let leaves = Serve_load.leaves
let queries_per_round = 400
let rounds = 5

let run_round ~profiled repo stored queries =
  let rng = Prng.create 7 in
  let fail = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun q ->
      let ok =
        if profiled then
          match Query_lang.profile ~rng ~record:false repo stored q with
          | Ok _ -> true
          | Error _ -> false
        else
          match Query_lang.run ~rng ~record:false repo stored q with
          | Ok _ -> true
          | Error _ -> false
      in
      if not ok then incr fail)
    queries;
  let wall = Unix.gettimeofday () -. t0 in
  if !fail > 0 then Printf.eprintf "E13: %d queries failed\n%!" !fail;
  float_of_int (List.length queries) /. wall

let run () =
  section "E13" "profiler overhead: plain queries vs full profiling";
  with_scratch_dir (fun dir ->
      let repo = Repo.open_dir (Filename.concat dir "repo") in
      ignore (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves));
      let stored = Stored_tree.open_name repo "bench" in
      let queries = Serve_load.script ~n:queries_per_round 0 in
      note "tree: yule %d leaves; %d queries/round (E11 mix), %d rounds each mode"
        leaves queries_per_round rounds;
      (* One warm-up round so both modes run against a hot cache. *)
      ignore (run_round ~profiled:false repo stored queries);
      (* Interleave modes so clock drift and cache aging hit both. *)
      let qps_run = ref 0.0 and qps_profiled = ref 0.0 in
      for _ = 1 to rounds do
        qps_run := !qps_run +. run_round ~profiled:false repo stored queries;
        qps_profiled := !qps_profiled +. run_round ~profiled:true repo stored queries
      done;
      let qps_run = !qps_run /. float_of_int rounds in
      let qps_profiled = !qps_profiled /. float_of_int rounds in
      let overhead_pct = 100.0 *. (1.0 -. (qps_profiled /. qps_run)) in
      (* One profiled query, for the per-query cost shape in the table. *)
      let sample_pages =
        match Query_lang.profile ~record:false repo stored "lca(T0, T7)" with
        | Ok (_, report) -> Profile.pages_touched report
        | Error _ -> 0
      in
      let table =
        T.create ~columns:[ ("mode", T.Left); ("queries/s", T.Right) ]
      in
      T.add_row table [ "run (charges only)"; Printf.sprintf "%.0f" qps_run ];
      T.add_row table [ "profile"; Printf.sprintf "%.0f" qps_profiled ];
      print_string (T.render table);
      note "profiling overhead: %.1f%%; warm lca touches %d pages" overhead_pct
        sample_pages;
      Repo.close repo;
      emit_bench ~experiment:"E13"
        ~fields:
          [
            ("queries_per_s", Json.Num qps_run);
            ("profiled_queries_per_s", Json.Num qps_profiled);
            ("overhead_pct", Json.Num overhead_pct);
            ("warm_lca_pages", Json.Num (float_of_int sample_pages));
          ]
        ())
