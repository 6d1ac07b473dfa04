(* E12 — Crash recovery: replay time vs committed log size, and the
   fsyncs of one durable commit.

   A durable commit appends its batch to the database-level WAL and
   fsyncs the log once; the pages reach their files with no fsync until
   a checkpoint. A crash between checkpoints leaves recovery with every
   batch committed since the last one to replay on the next open. This
   experiment leaves logs of increasing size behind (exactly the on-disk
   state such a crash produces) and measures the reopen cost against a
   clean open, alongside the storage.recovery.* counters the replay
   feeds, and counts the fsyncs one durable load of its tree makes. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Wal = Crimson_storage.Wal
module Page = Crimson_storage.Page
module Database = Crimson_storage.Database
module Counter = Crimson_obs.Metrics.Counter

let m_rec_pages = Crimson_obs.Metrics.counter "storage.recovery.pages"
let scratch_file = "replay.scratch"

(* Fsyncs of the log and of the page files, on this domain. *)
let fsyncs () =
  let c = Crimson_obs.Cost.snapshot () in
  c.wal_fsyncs + c.pager_fsyncs

let run () =
  section "E12" "WAL recovery: replay time vs committed log size";
  let table =
    T.create
      ~columns:
        [
          ("wal pages", T.Right);
          ("clean open", T.Right);
          ("recovering open", T.Right);
          ("replayed", T.Right);
          ("per page", T.Right);
        ]
  in
  let load_fsyncs = ref 0 in
  let rows =
    List.map
      (fun n_pages ->
        with_scratch_dir (fun dir ->
            (* A small durable repository to recover into. *)
            let repo = Repo.open_dir ~durable:true dir in
            let tree = yule 2_000 in
            let before = fsyncs () in
            ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
            load_fsyncs := fsyncs () - before;
            Repo.close repo;
            (* Clean-open baseline. *)
            let _, clean_ms =
              time_once (fun () -> Repo.close (Repo.open_dir ~durable:true dir))
            in
            (* Reproduce the post-crash state: a committed log the page
               files never saw. The pages target a scratch file so the
               repository stays semantically intact after replay. *)
            let wal = Wal.open_path (Filename.concat dir "crimson.wal") in
            let image = Bytes.make Page.size '\xAB' in
            Wal.append_entries wal
              (List.init n_pages (fun i -> { Wal.file = scratch_file; page_id = i; image }));
            Wal.close wal;
            let pages_before = Counter.value m_rec_pages in
            let repo, recover_ms = time_once (fun () -> Repo.open_dir ~durable:true dir) in
            Repo.close repo;
            let replayed = Counter.value m_rec_pages - pages_before in
            let per_page_us = 1000.0 *. (recover_ms -. clean_ms) /. float_of_int n_pages in
            T.add_row table
              [
                string_of_int n_pages;
                Printf.sprintf "%.2f ms" clean_ms;
                Printf.sprintf "%.2f ms" recover_ms;
                string_of_int replayed;
                Printf.sprintf "%.1f us" per_page_us;
              ];
            (n_pages, recover_ms, per_page_us)))
      [ 64; 256; 1024; 4096 ]
  in
  T.print table;
  (* The log a crash can leave: up to the bound, then one more commit. *)
  let record_bytes = 4 + String.length scratch_file + 4 + Page.size + 4 in
  let bound_pages = Database.log_bound / record_bytes in
  let _, _, per_page_us = List.nth rows (List.length rows - 1) in
  note "one durable load_tree of the 2,000-leaf tree: %d fsync(s), log and page files"
    !load_fsyncs;
  note
    "Recovery cost is linear in the committed log at roughly the sequential\n\
     write cost of its pages plus one fsync per touched file. A commit\n\
     appends to the log and a checkpoint empties it once it passes %d MiB\n\
     (%d pages), so a crash leaves at most that plus the last commit to\n\
     replay: about %.0f ms at the %.1f us per page measured above."
    (Database.log_bound lsr 20) bound_pages
    (per_page_us *. float_of_int bound_pages /. 1000.0)
    per_page_us;
  emit_bench ~experiment:"E12"
    ~fields:
      (("commit_fsyncs_load", Json.Num (float_of_int !load_fsyncs))
      :: List.map
           (fun (n, ms, _) -> (Printf.sprintf "recover_ms_%d" n, Json.Num ms))
           rows)
    ()
