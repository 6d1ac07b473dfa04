(* Compare fresh BENCH_<exp>.json snapshots against the committed
   baselines in bench/baselines/.

   Usage: diff.exe [FRESH_DIR] [BASELINE_DIR]
   (defaults: current directory, bench/baselines)

   For every experiment present in both directories, numeric top-level
   fields are compared by name convention: [*per_s] and
   [*per_s_<qualifier>] (e.g. [load_nodes_per_s_yule50k_f8]) are
   higher-is-better, [*_ms], [*_ms_<qualifier>] (e.g.
   [projection_ms_k5000]) and [*_pct] are lower-is-better, and so is
   every field with a [words] name component (E6's
   [load_major_words_per_node_yule10k_f8], E17's
   [major_words_r_overview]); [nrf_*] and [triplet_*] (E7's scores),
   [frontier_nodes_*] (E3's frontier sizes) and every field with a
   [pages] name component ([warm_lca_pages], [overview_pages_l500],
   [lca_pages_q_cat10k_c4096]) or an [fsyncs] one (E12's
   [commit_fsyncs_load]) are exact; everything else (other
   counts, sizes such as E14's [rss_mb_w4_k8], the raw metrics dump) is
   informational only.

   An exact field is an integer count, or a ratio of counts, fixed by
   the seeds, so it does not depend on the host: any difference from
   the baseline, or its absence from the fresh snapshot, prints a FAIL
   line and the exit status is 1. A regression of more than 20% in a
   timed field, or of more than 10% in a word count, prints a WARNING
   line only — benchmark containers are too noisy for a hard gate on
   times, and a word count that repeats across runs is gated only once
   three baseline runs agree, so CI surfaces the warning in the log
   instead of failing the build. *)

module Json = Crimson_obs.Json

let regression_threshold_pct = 20.0
let words_threshold_pct = 10.0

type direction = Higher_better | Lower_better | Exact

let direction_of field =
  let ends_with suffix =
    let fl = String.length field and sl = String.length suffix in
    fl >= sl && String.sub field (fl - sl) sl = suffix
  in
  let components = String.split_on_char '_' field in
  let parts = List.tl components in
  let has_ms_infix = List.mem "ms" parts in
  let rec has_per_s = function
    | "per" :: "s" :: _ -> true
    | _ :: rest -> has_per_s rest
    | [] -> false
  in
  if
    String.starts_with ~prefix:"nrf_" field
    || String.starts_with ~prefix:"triplet_" field
    || String.starts_with ~prefix:"frontier_nodes_" field
    || List.mem "pages" components
    || List.mem "fsyncs" components
  then Some Exact
  else if ends_with "per_s" || has_per_s parts then Some Higher_better
  else if has_ms_infix || ends_with "_pct" || List.mem "words" components then
    Some Lower_better
  else None

let threshold_pct field =
  if List.mem "words" (String.split_on_char '_' field) then words_threshold_pct
  else regression_threshold_pct

let read_bench path =
  let ic = open_in path in
  let line =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  Json.parse line

let numeric_fields j =
  match j with
  | Json.Obj fields ->
      List.filter_map
        (function name, Json.Num v -> Some (name, v) | _ -> None)
        fields
  | _ -> []

let experiment_files dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if
               String.length e > 11
               && String.sub e 0 6 = "BENCH_"
               && Filename.check_suffix e ".json"
             then Some (Filename.chop_suffix (String.sub e 6 (String.length e - 6)) ".json")
             else None)
      |> List.sort compare
  | exception Sys_error _ -> []

let () =
  let fresh_dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let base_dir =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else Filename.concat (Filename.concat "." "bench") "baselines"
  in
  let fresh_exps = experiment_files fresh_dir in
  let base_exps = experiment_files base_dir in
  if base_exps = [] then begin
    Printf.printf "bench-diff: no baselines in %s — nothing to compare\n" base_dir;
    exit 0
  end;
  if fresh_exps = [] then begin
    Printf.printf
      "bench-diff: no fresh BENCH_*.json in %s — run `make bench-snapshot` first\n"
      fresh_dir;
    exit 0
  end;
  let warnings = ref 0 and failures = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun exp ->
      if not (List.mem exp fresh_exps) then
        Printf.printf "%-6s no fresh snapshot — skipped\n" exp
      else begin
        let file d = Filename.concat d (Printf.sprintf "BENCH_%s.json" exp) in
        match (read_bench (file base_dir), read_bench (file fresh_dir)) with
        | exception (Sys_error msg | Failure msg) ->
            Printf.printf "%-6s unreadable snapshot (%s) — skipped\n" exp msg
        | base, fresh ->
            let base_fields = numeric_fields base in
            List.iter
              (fun (field, bv) ->
                match
                  (direction_of field, List.assoc_opt field (numeric_fields fresh))
                with
                | None, _ -> ()
                | Some Exact, fresh_value ->
                    incr compared;
                    if fresh_value <> Some bv then begin
                      incr failures;
                      Printf.printf "%-6s %-28s base %.17g  fresh %s  FAIL: exact field changed\n"
                        exp field bv
                        (match fresh_value with
                        | Some fv -> Printf.sprintf "%.17g" fv
                        | None -> "missing")
                    end
                | _, None -> ()
                | Some ((Higher_better | Lower_better) as dir), Some fv ->
                    incr compared;
                    (* Positive delta_pct always means "got worse". *)
                    let delta_pct =
                      if bv = 0.0 then 0.0
                      else if dir = Higher_better then 100.0 *. (1.0 -. (fv /. bv))
                      else 100.0 *. ((fv /. bv) -. 1.0)
                    in
                    let flag =
                      if delta_pct > threshold_pct field then begin
                        incr warnings;
                        "  WARNING: regression"
                      end
                      else ""
                    in
                    Printf.printf "%-6s %-28s base %12.3f  fresh %12.3f  %+6.1f%%%s\n"
                      exp field bv fv delta_pct flag)
              base_fields
      end)
    base_exps;
  Printf.printf "bench-diff: %d fields compared, %d warning(s), %d failure(s)\n" !compared
    !warnings !failures;
  if !warnings > 0 then
    Printf.printf
      "bench-diff: warnings are warn-only — thresholds are %.0f%% for times and %.0f%% for \
       word counts; investigate before trusting the run\n"
      regression_threshold_pct words_threshold_pct;
  exit (if !failures > 0 then 1 else 0)
