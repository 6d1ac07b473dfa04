(* Tests for the write-ahead log and crash recovery: the log classifies
   committed, torn and corrupt batches and keeps every committed batch
   in order; opening a database replays the committed batches of
   crimson.wal and discards a torn one; a commit is one log fsync, and
   a checkpoint empties the log; durable repositories survive simulated
   crashes. *)

module Page = Crimson_storage.Page
module Pager = Crimson_storage.Pager
module Heap = Crimson_storage.Heap
module Wal = Crimson_storage.Wal
module Database = Crimson_storage.Database
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Error = Crimson_storage.Error
module Io = Crimson_storage.Io
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Projection = Crimson_core.Projection

let check = Alcotest.check

let with_temp_dir f =
  let dir = Filename.temp_file "crimson" ".wal" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let page_of_char c =
  let p = Page.fresh () in
  Bytes.fill p 0 Page.size c;
  p

let entry file page_id c = { Wal.file; page_id; image = page_of_char c }

(* The database-level log of [dir], where a crashed checkpoint leaves
   its batch. *)
let wal_file dir = Filename.concat dir "crimson.wal"
let wal_in dir = Wal.open_path (wal_file dir)
let wal_size dir = (Unix.stat (wal_file dir)).Unix.st_size

let batches wal =
  match Wal.read wal with Wal.Committed batches -> Some batches | Wal.Empty | Wal.Torn _ -> None

let committed wal = Option.map List.concat (batches wal)

let plant dir entries =
  let wal = wal_in dir in
  Wal.append_entries wal entries;
  Wal.close wal

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let discards () =
  Crimson_obs.Metrics.Counter.value
    (Crimson_obs.Metrics.counter "storage.recovery.discarded")

(* ------------------------------- Wal -------------------------------- *)

(* A consistent base: [dir]/t.pages with [pages] pages, page 1 starting
   with 'O'. *)
let make_page_file dir ~pages =
  let p = Pager.create_file (Filename.concat dir "t.pages") in
  for _ = 1 to pages do
    ignore (Pager.allocate p)
  done;
  Pager.with_page_mut p 1 (fun b -> Bytes.set b 0 'O');
  Pager.close p

let first_byte dir page =
  let p = Pager.create_file (Filename.concat dir "t.pages") in
  Fun.protect
    ~finally:(fun () -> Pager.close p)
    (fun () -> Pager.with_page p page (fun b -> Bytes.get b 0))

let test_wal_roundtrip () =
  with_temp_dir (fun dir ->
      let wal = wal_in dir in
      check Alcotest.bool "empty at start" true (Wal.read wal = Wal.Empty);
      let batch = [ entry "a.heap" 1 'a'; entry "b.idx" 5 'b' ] in
      Wal.append_entries wal batch;
      (match committed wal with
      | Some got ->
          check Alcotest.int "batch size" 2 (List.length got);
          check Alcotest.bool "contents" true
            (List.for_all2
               (fun (e : Wal.entry) (e' : Wal.entry) ->
                 e.file = e'.file && e.page_id = e'.page_id && Bytes.equal e.image e'.image)
               batch got)
      | None -> Alcotest.fail "committed batch not read back");
      Wal.clear wal;
      check Alcotest.bool "cleared" true (Wal.read wal = Wal.Empty);
      Wal.close wal)

(* Each append adds a batch after the last; a read returns them in log
   order, and recovery replays them in that order, so a later image of
   a page wins. *)
let test_wal_batches_accumulate () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:4;
      let wal = wal_in dir in
      Wal.append_entries wal [ entry "t.pages" 1 'x'; entry "t.pages" 2 'y' ];
      let first = Wal.size wal in
      Wal.append_entries wal [ entry "t.pages" 3 'z'; entry "t.pages" 1 'w' ];
      check Alcotest.int "the second batch follows the first" (wal_size dir) (Wal.size wal);
      check Alcotest.bool "the log grew" true (Wal.size wal > first);
      let ids = List.map (List.map (fun (e : Wal.entry) -> e.page_id)) in
      (match batches wal with
      | Some got ->
          check Alcotest.(list (list int)) "both batches, in log order" [ [ 1; 2 ]; [ 3; 1 ] ]
            (ids got)
      | None -> Alcotest.fail "committed batches not read back");
      Wal.close wal;
      Database.close (Database.open_dir dir);
      check Alcotest.char "the later image of page 1 wins" 'w' (first_byte dir 1);
      check Alcotest.char "page 2 from the first batch" 'y' (first_byte dir 2);
      check Alcotest.char "page 3 from the second batch" 'z' (first_byte dir 3);
      check Alcotest.int "wal cleared" 0 (wal_size dir))

(* A crash mid-append tears only the last batch: the batches before it
   committed, and recovery replays them and drops the torn one. *)
let test_wal_torn_tail_batch () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:3;
      let wal = wal_in dir in
      Wal.append_entries wal [ entry "t.pages" 1 'a' ];
      Wal.append_entries wal [ entry "t.pages" 2 'b'; entry "t.pages" 1 'c' ];
      Wal.close wal;
      truncate_file (wal_file dir) (wal_size dir - 100);
      let wal = wal_in dir in
      (match batches wal with
      | Some [ [ { Wal.page_id = 1; image; _ } ] ] ->
          check Alcotest.char "the first batch's image" 'a' (Bytes.get image 0)
      | Some got -> Alcotest.failf "expected the first batch alone, got %d" (List.length got)
      | None -> Alcotest.fail "the committed first batch was lost");
      Wal.close wal;
      let before = discards () in
      Database.close (Database.open_dir dir);
      check Alcotest.char "the committed batch replayed" 'a' (first_byte dir 1);
      check Alcotest.char "nothing of the torn batch" '\000' (first_byte dir 2);
      check Alcotest.int "no whole-log discard" before (discards ());
      check Alcotest.int "wal cleared" 0 (wal_size dir))

(* A torn first batch reads as [Torn], however much followed it. *)
let test_wal_torn_first_batch () =
  with_temp_dir (fun dir ->
      let wal = wal_in dir in
      Wal.append_entries wal [ entry "t.pages" 1 'a'; entry "t.pages" 2 'b' ];
      let first = Wal.size wal in
      Wal.append_entries wal [ entry "t.pages" 3 'c' ];
      Wal.close wal;
      (* Into the first batch's commit record. *)
      truncate_file (wal_file dir) (first - 3);
      let wal = wal_in dir in
      (match Wal.read wal with
      | Wal.Torn { intact; detail } ->
          check Alcotest.int "both records verify" 2 intact;
          check Alcotest.string "blamed on the commit record" "commit record truncated" detail
      | Wal.Committed _ -> Alcotest.fail "a torn first batch read as committed"
      | Wal.Empty -> Alcotest.fail "log vanished");
      Wal.close wal)

(* An append whose fsync failed leaves its batch past the log's end,
   uncommitted as far as the caller knows. The next append cuts it
   before writing, so no byte past the last batch could be read as a
   batch. *)
let test_wal_failed_append_cut () =
  with_temp_dir (fun dir ->
      let big = [ entry "t.pages" 1 'a'; entry "t.pages" 2 'b' ] in
      let io = Io.counting () in
      let wal = Wal.open_path ~io (Filename.concat dir "count.wal") in
      Wal.append_entries wal big;
      Wal.close wal;
      (* The fsync is the append's last operation. *)
      let io = Io.faulty Io.Fail_op ~at:(Io.op_count io) in
      let wal = Wal.open_path ~io (wal_file dir) in
      (match Wal.append_entries wal big with
      | () -> Alcotest.fail "the fault did not fire"
      | exception Error.Error (Error.Io_failed _) -> ());
      check Alcotest.int "nothing committed" 0 (Wal.size wal);
      check Alcotest.bool "the failed batch is in the file" true (wal_size dir > 0);
      Wal.append_entries wal [ entry "t.pages" 3 'c' ];
      check Alcotest.int "the file ends where the log does" (Wal.size wal) (wal_size dir);
      (match batches wal with
      | Some [ [ { Wal.page_id = 3; _ } ] ] -> ()
      | _ -> Alcotest.fail "expected the one later batch");
      Wal.close wal)

(* The checksum folds eight bytes per step; its definition is bytewise. *)
let bytewise_checksum file page_id image =
  let step acc c = ((acc * 31) + Char.code c) land 0x3FFFFFFF in
  let acc = String.fold_left step ((page_id * 2654435761) land 0x3FFFFFFF) file in
  Bytes.fold_left step acc image

let prop_checksum_bytewise =
  QCheck.Test.make ~name:"8-byte checksum = bytewise definition" ~count:300
    QCheck.(
      triple (string_of_size Gen.(0 -- 40)) (int_bound 0xFFFFFF)
        (oneof
           [
             string_of_size Gen.(0 -- 70);
             string_of_size (Gen.return Page.size);
           ]))
    (fun (file, page_id, image) ->
      let image = Bytes.of_string image in
      Wal.checksum file page_id image = bytewise_checksum file page_id image)

let test_wal_torn_write_discarded () =
  with_temp_dir (fun dir ->
      plant dir [ entry "t.pages" 1 'q'; entry "t.pages" 2 'r' ];
      (* Chop off the tail: the commit checksum (and part of a record)
         vanish, as in a crash mid-write. *)
      truncate_file (wal_file dir) (wal_size dir - 100);
      let wal = wal_in dir in
      check Alcotest.bool "torn batch discarded" true (committed wal = None);
      Wal.close wal)

(* The acceptance case for the v2 format: a multi-record batch whose
   LAST record has one bit flipped. The per-record checksum must
   classify the log as torn at exactly that record, and a database
   opening next to it must keep the pre-crash state and count a
   discard. *)
let test_wal_bit_flipped_tail_record () =
  with_temp_dir (fun dir ->
      plant dir [ entry "a.heap" 0 'a'; entry "a.heap" 1 'b'; entry "b.idx" 2 'c' ];
      let record_len file = 4 + String.length file + 4 + Page.size + 4 in
      (* Flip one bit inside the third record's page image. *)
      let tail_image_off =
        12 + record_len "a.heap" + record_len "a.heap" + 4 + String.length "b.idx" + 4 + 17
      in
      let fd = Unix.openfile (wal_file dir) [ Unix.O_RDWR ] 0o644 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd tail_image_off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd tail_image_off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let wal = wal_in dir in
      (match Wal.read wal with
      | Wal.Torn { intact; detail } ->
          check Alcotest.int "first two records verify" 2 intact;
          check Alcotest.bool "blamed on the record checksum" true
            (detail = "record checksum mismatch")
      | Wal.Committed _ -> Alcotest.fail "bit flip not detected"
      | Wal.Empty -> Alcotest.fail "log vanished");
      check Alcotest.bool "read refuses to commit it" true (committed wal = None);
      Wal.close wal;
      (* Recovery: the torn log is discarded, no tagged file gains a
         page from it. *)
      let before = discards () in
      Database.close (Database.open_dir dir);
      check Alcotest.int "discard counted" (before + 1) (discards ());
      let p = Pager.create_file (Filename.concat dir "a.heap") in
      check Alcotest.int "no pages appeared from the torn log" 0 (Pager.page_count p);
      Pager.close p)

let test_wal_corrupt_checksum_discarded () =
  with_temp_dir (fun dir ->
      plant dir [ entry "t.pages" 1 's' ];
      (* Flip a byte inside the page image. *)
      let fd = Unix.openfile (wal_file dir) [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd 100 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
      Unix.close fd;
      let wal = wal_in dir in
      check Alcotest.bool "corrupt batch discarded" true (committed wal = None);
      Wal.close wal)

(* ------------------------- Database recovery ------------------------ *)

(* One batch in the CRIMWAL2 layout, built byte by byte: magic, record
   count, then per record the file tag's length and bytes, the page id,
   the image and the record checksum, then the masked sum of the record
   checksums. All integers are little-endian u32. *)
let crimwal2_batch entries =
  let b = Buffer.create 8192 in
  let u32 v =
    let s = Bytes.create 4 in
    Bytes.set_int32_le s 0 (Int32.of_int v);
    Buffer.add_bytes b s
  in
  Buffer.add_string b "CRIMWAL2";
  u32 (List.length entries);
  let sum =
    List.fold_left
      (fun sum { Wal.file; page_id; image } ->
        let ck = bytewise_checksum file page_id image in
        u32 (String.length file);
        Buffer.add_string b file;
        u32 page_id;
        Buffer.add_bytes b image;
        u32 ck;
        (sum + ck) land 0x3FFFFFFF)
      0 entries
  in
  u32 sum;
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A log of one batch is the layout that versions replacing the log on
   every commit wrote, byte for byte, and it replays. *)
let test_replays_committed_wal () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:3;
      (* A crash left a committed batch that was never applied. *)
      plant dir [ entry "t.pages" 1 'N' ];
      check Alcotest.bool "the one-batch log is the CRIMWAL2 layout" true
        (read_file (wal_file dir) = crimwal2_batch [ entry "t.pages" 1 'N' ]);
      (* Not durable: recovery must still run. *)
      Database.close (Database.open_dir dir);
      check Alcotest.char "replayed" 'N' (first_byte dir 1);
      check Alcotest.int "wal cleared" 0 (wal_size dir))

let test_ignores_torn_wal () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:2;
      plant dir [ entry "t.pages" 1 'X' ];
      truncate_file (wal_file dir) (wal_size dir - 7);
      let before = discards () in
      Database.close (Database.open_dir dir);
      check Alcotest.char "pre-crash state kept" 'O' (first_byte dir 1);
      check Alcotest.int "discard counted" (before + 1) (discards ()))

(* A read-only open may only classify the log: a committed batch means
   the files are stale, so it refuses and leaves the batch for a
   read-write open to replay. *)
let test_read_only_refuses_committed_wal () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:2;
      plant dir [ entry "t.pages" 1 'N' ];
      let size = wal_size dir in
      (match Database.open_dir ~mode:Database.Read_only dir with
      | db ->
          Database.close db;
          Alcotest.fail "read-only open went past a committed log"
      | exception Error.Error (Error.Read_only _) -> ());
      check Alcotest.int "log left in place" size (wal_size dir);
      let wal = wal_in dir in
      check Alcotest.bool "batch still committed" true (committed wal <> None);
      Wal.close wal;
      check Alcotest.char "file not replayed" 'O' (first_byte dir 1))

(* Thirty pages of rows through 8-frame pools: dirty evictions force
   whole-database commits through crimson.wal, and a reopen reads every
   row back by its rid. *)
let test_durable_full_cycle () =
  with_temp_dir (fun dir ->
      let schema = [| ("i", Record.Int); ("body", Record.Text) |] in
      let body i = String.make 500 (Char.chr (65 + (i mod 26))) in
      let table db = Database.table db ~name:"t" ~schema ~indexes:[] in
      let appends () =
        Crimson_obs.Metrics.Counter.value (Crimson_obs.Metrics.counter "storage.wal.append")
      in
      let db = Database.open_dir ~durable:true ~pool_size:8 dir in
      let t = table db in
      let before = appends () in
      let rids = Array.init 240 (fun i -> Table.insert t [| Record.VInt i; VText (body i) |]) in
      check Alcotest.bool "dirty evictions checkpointed" true (appends () > before);
      Database.close db;
      check Alcotest.int "wal cleared by the last checkpoint" 0 (wal_size dir);
      let db = Database.open_dir ~durable:true ~pool_size:8 dir in
      let t = table db in
      Array.iteri
        (fun i rid ->
          check (Alcotest.option Alcotest.string)
            (Printf.sprintf "row %d" i)
            (Some (body i))
            (Option.map (fun row -> Record.get_text row 1) (Table.get t rid)))
        rids;
      Database.close db)

let fsyncs () =
  let c = Crimson_obs.Cost.snapshot () in
  (c.wal_fsyncs, c.pager_fsyncs)

let row_schema = [| ("i", Record.Int); ("body", Record.Text) |]
let row_table db = Database.table db ~name:"t" ~schema:row_schema ~indexes:[]

(* A commit fsyncs the log once and no data file; the committed pages
   live in the log until a checkpoint, so a heap file that lost them
   (unsynced writes at a power cut) is restored by replay; the
   checkpoint fsyncs each file written since the last one and empties
   the log. *)
let test_commit_then_checkpoint () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~durable:true dir in
      let t = row_table db in
      let first = Array.init 20 (fun i -> Table.insert t [| Record.VInt i; VText "one" |]) in
      let wal0, pager0 = fsyncs () in
      Database.commit db;
      let wal1, pager1 = fsyncs () in
      check Alcotest.int "one log fsync" 1 (wal1 - wal0);
      check Alcotest.int "no file fsync" 0 (pager1 - pager0);
      let one = wal_size dir in
      check Alcotest.bool "the batch stays in the log" true (one > 0);
      let second = Array.init 20 (fun i -> Table.insert t [| Record.VInt i; VText "two" |]) in
      Database.commit db;
      check Alcotest.bool "the second batch follows" true (wal_size dir > one);
      (* Power cut: the heap file lost what was written to it since the
         last checkpoint — here, everything. *)
      Database.abandon db;
      truncate_file (Filename.concat dir "t.heap") 0;
      let db = Database.open_dir ~durable:true dir in
      let t = row_table db in
      let body rid = Option.map (fun row -> Record.get_text row 1) (Table.get t rid) in
      Array.iter (fun rid -> check Alcotest.(option string) "first commit" (Some "one") (body rid)) first;
      Array.iter (fun rid -> check Alcotest.(option string) "second commit" (Some "two") (body rid)) second;
      check Alcotest.int "recovery emptied the log" 0 (wal_size dir);
      ignore (Table.insert t [| Record.VInt 0; VText "three" |]);
      Database.commit db;
      let wal0, pager0 = fsyncs () in
      Database.checkpoint db;
      let wal1, pager1 = fsyncs () in
      check Alcotest.int "the one written file fsynced" 1 (pager1 - pager0);
      check Alcotest.int "the log emptied and fsynced" 1 (wal1 - wal0);
      check Alcotest.int "log empty" 0 (wal_size dir);
      let wal0, pager0 = fsyncs () in
      Database.flush db;
      check Alcotest.bool "nothing left to sync" true (fsyncs () = (wal0, pager0));
      Database.close db)

(* Commits of about 33 pages each grow the log until one passes
   [Database.log_bound]; that commit ends with a checkpoint. *)
let test_log_bound_checkpoints () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~durable:true ~pool_size:64 dir in
      let t = row_table db in
      let body = String.make 3000 'b' in
      (* Each commit logs at least 32 pages, so the bound is passed
         within [cap] commits; past it, no checkpoint ever ran. *)
      let cap = 2 * Database.log_bound / (32 * Page.size) in
      let rec commits sizes =
        if List.length sizes >= cap then
          Alcotest.failf "no checkpoint after %d commits (log at %d bytes)" cap (wal_size dir);
        for i = 1 to 32 do
          ignore (Table.insert t [| Record.VInt i; VText body |])
        done;
        Database.commit db;
        match wal_size dir :: sizes with
        | 0 :: before :: prev :: _ -> (before, before - prev, List.length sizes + 1)
        | sizes -> commits sizes
      in
      let before, step, n = commits [] in
      check Alcotest.bool "below the bound until the last commit" true
        (before <= Database.log_bound);
      check Alcotest.bool "the last commit passed it" true (before + step > Database.log_bound);
      check Alcotest.bool "many commits" true (n > Database.log_bound / (40 * Page.size));
      Database.close db;
      let db = Database.open_dir ~durable:true ~pool_size:64 dir in
      let rows = ref 0 in
      Table.scan (row_table db) (fun _ _ -> incr rows);
      check Alcotest.int "every row" (32 * n) !rows;
      Database.close db)

(* ------------------------ Durable repositories ---------------------- *)

let test_durable_repo_survives_wal_replay () =
  with_temp_dir (fun dir ->
      let fx = Helpers.figure1 () in
      (let repo = Repo.open_dir ~durable:true dir in
       ignore (Loader.load_tree ~f:2 repo ~name:"figure1" fx.tree);
       Repo.close repo);
      (* The load's own WAL cycle must have left everything
         consistent. *)
      let repo = Repo.open_dir ~durable:true dir in
      let stored = Stored_tree.open_name repo "figure1" in
      let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
      check Alcotest.int "projection after durable reopen" 5
        (Crimson_tree.Tree.node_count proj);
      Repo.close repo)

(* Five hundred short rows on a durable database whose files have 8
   frames each: the heap file, reopened on its own after the last
   checkpoint, holds every record, and a durable reopen reads each row
   back by its rid. *)
let test_heap_on_durable_pager () =
  with_temp_dir (fun dir ->
      let schema = [| ("s", Record.Text) |] in
      let row i = Printf.sprintf "r%04d" i in
      let table db = Database.table db ~name:"h" ~schema ~indexes:[] in
      let db = Database.open_dir ~durable:true ~pool_size:8 dir in
      let rids = Array.init 500 (fun i -> Table.insert (table db) [| Record.VText (row i) |]) in
      Database.close db;
      let p = Pager.create_file ~pool_size:8 (Filename.concat dir "h.heap") in
      check Alcotest.int "heap records" 500 (Heap.record_count (Heap.create p));
      Pager.close p;
      let db = Database.open_dir ~durable:true ~pool_size:8 dir in
      let t = table db in
      Array.iteri
        (fun i rid ->
          check (Alcotest.option Alcotest.string) "durable record" (Some (row i))
            (Option.map (fun r -> Record.get_text r 0) (Table.get t rid)))
        rids;
      Database.close db)

let () =
  Alcotest.run "crimson_wal"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "batches accumulate in order" `Quick test_wal_batches_accumulate;
          Alcotest.test_case "torn tail batch keeps the earlier" `Quick test_wal_torn_tail_batch;
          Alcotest.test_case "torn first batch reads as torn" `Quick test_wal_torn_first_batch;
          Alcotest.test_case "failed append cut" `Quick test_wal_failed_append_cut;
          Alcotest.test_case "torn write discarded" `Quick test_wal_torn_write_discarded;
          Alcotest.test_case "bit-flipped tail record" `Quick
            test_wal_bit_flipped_tail_record;
          Alcotest.test_case "corrupt checksum discarded" `Quick
            test_wal_corrupt_checksum_discarded;
          QCheck_alcotest.to_alcotest prop_checksum_bytewise;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replays committed wal" `Quick test_replays_committed_wal;
          Alcotest.test_case "ignores torn wal" `Quick test_ignores_torn_wal;
          Alcotest.test_case "read-only open refuses" `Quick
            test_read_only_refuses_committed_wal;
          Alcotest.test_case "durable full cycle" `Quick test_durable_full_cycle;
          Alcotest.test_case "commit, then checkpoint" `Quick test_commit_then_checkpoint;
          Alcotest.test_case "log bound checkpoints" `Quick test_log_bound_checkpoints;
        ] );
      ( "durable_repo",
        [
          Alcotest.test_case "load and reopen" `Quick test_durable_repo_survives_wal_replay;
          Alcotest.test_case "heap on durable pager" `Quick test_heap_on_durable_pager;
        ] );
    ]
