(* Shared plumbing for the experiment harness: deterministic tree
   builders, wall-clock helpers, and a thin Bechamel wrapper. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module T = Crimson_util.Table_printer
module Metrics = Crimson_obs.Metrics
module Json = Crimson_obs.Json

let section id title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==================================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* ------------------------ Metric snapshots ------------------------- *)
(* Each experiment runs against a zeroed registry; when it finishes the
   harness emits one machine-readable line

     BENCH {"experiment": "E9", …, "metrics": {…}}

   so the result JSONs carry the buffer-pool hit/miss, WAL fsync and
   latency-histogram trajectories alongside the printed tables. *)

let reset_metrics () = Metrics.reset_all ()

(* The runtime.* gauges are sampled on demand, so refresh them first or
   every snapshot records them as 0. *)
let metrics_snapshot () =
  Crimson_obs.Runtime.refresh ();
  Metrics.to_json ()

(* Fields already emitted for an experiment this run, so the snapshot
   file keeps the experiment's own fields when the harness adds its
   trailing "seconds" line (same experiment id, second emit). *)
let emitted_fields : (string, (string * Json.t) list) Hashtbl.t = Hashtbl.create 8

let emit_bench ~experiment ?(fields = []) () =
  let line =
    Json.Obj
      ((("experiment", Json.Str experiment) :: fields)
      @ [ ("metrics", metrics_snapshot ()) ])
  in
  Printf.printf "BENCH %s\n%!" (Json.to_string line);
  (* `make bench-snapshot` persists each experiment's BENCH payload as
     BENCH_<exp>.json in $CRIMSON_BENCH_SNAPSHOT, so CI can upload the
     trajectory as an artifact instead of grepping stdout. *)
  match Sys.getenv_opt "CRIMSON_BENCH_SNAPSHOT" with
  | None -> ()
  | Some dir ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt emitted_fields experiment) in
      let kept = List.filter (fun (k, _) -> not (List.mem_assoc k fields)) prev in
      let merged = kept @ fields in
      Hashtbl.replace emitted_fields experiment merged;
      let file_line =
        Json.Obj
          ((("experiment", Json.Str experiment) :: merged)
          @ [ ("metrics", metrics_snapshot ()) ])
      in
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" experiment) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Json.to_string file_line);
          output_char oc '\n')

(* Milliseconds of one call. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, 1000.0 *. (Unix.gettimeofday () -. t0))

(* Mean milliseconds per call over [reps] calls. *)
let time_mean ?(reps = 3) f =
  let total = ref 0.0 in
  for _ = 1 to reps do
    let _, ms = time_once f in
    total := !total +. ms
  done;
  !total /. float_of_int reps

(* Nanoseconds per op: run [op] in batches until ~[budget_s] elapsed. *)
let ns_per_op ?(budget_s = 0.3) op =
  (* Warm up and estimate batch size. *)
  op ();
  let t0 = Unix.gettimeofday () in
  let batch = ref 1 in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let count = ref 0 in
  while elapsed () < budget_s do
    for _ = 1 to !batch do
      op ()
    done;
    count := !count + !batch;
    if !batch < 1 lsl 16 then batch := !batch * 2
  done;
  1e9 *. elapsed () /. float_of_int !count

let pretty_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f µs" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let pretty_bytes b =
  if b < 1024 then Printf.sprintf "%d B" b
  else if b < 1024 * 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%.1f MiB" (float_of_int b /. (1024.0 *. 1024.0))

(* Deterministic workload trees. *)
let caterpillar n = Models.caterpillar ~rng:(Prng.create 11) ~leaves:n ()
let yule n = Models.yule ~rng:(Prng.create 12) ~leaves:n ()
let coalescent n = Models.coalescent ~rng:(Prng.create 13) ~leaves:n ()
let random_attachment n = Models.random_attachment ~rng:(Prng.create 14) ~leaves:n ()

(* A scratch directory for experiments that must touch disk. *)
let with_scratch_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crimson_bench_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* Bechamel wrapper: run a list of tests, return (name, ns/run). *)
let bechamel_estimates tests =
  let open Bechamel in
  let grouped = Test.make_grouped ~name:"crimson" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    results []
  |> List.sort compare
