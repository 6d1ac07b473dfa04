(* Tests for the write-ahead log and crash recovery: the log classifies
   committed, torn and corrupt batches; opening a database replays a
   committed crimson.wal and discards a torn one; durable repositories
   survive simulated crashes. *)

module Page = Crimson_storage.Page
module Pager = Crimson_storage.Pager
module Heap = Crimson_storage.Heap
module Wal = Crimson_storage.Wal
module Database = Crimson_storage.Database
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Error = Crimson_storage.Error
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

let committed wal =
  match Wal.read wal with Wal.Committed entries -> Some entries | Wal.Empty | Wal.Torn _ -> None

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

let test_wal_overwrites_previous_batch () =
  with_temp_dir (fun dir ->
      let wal = wal_in dir in
      Wal.append_entries wal [ entry "t.pages" 1 'x'; entry "t.pages" 2 'y' ];
      Wal.append_entries wal [ entry "t.pages" 3 'z' ];
      (match committed wal with
      | Some [ { Wal.page_id = 3; _ } ] -> ()
      | _ -> Alcotest.fail "latest batch should win");
      Wal.close wal)

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

let test_replays_committed_wal () =
  with_temp_dir (fun dir ->
      make_page_file dir ~pages:3;
      (* A crash left a committed batch that was never applied. *)
      plant dir [ entry "t.pages" 1 'N' ];
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
   whole-database checkpoints through crimson.wal, and a reopen reads
   every row back by its rid. *)
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
          Alcotest.test_case "latest batch wins" `Quick test_wal_overwrites_previous_batch;
          Alcotest.test_case "torn write discarded" `Quick test_wal_torn_write_discarded;
          Alcotest.test_case "bit-flipped tail record" `Quick
            test_wal_bit_flipped_tail_record;
          Alcotest.test_case "corrupt checksum discarded" `Quick
            test_wal_corrupt_checksum_discarded;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replays committed wal" `Quick test_replays_committed_wal;
          Alcotest.test_case "ignores torn wal" `Quick test_ignores_torn_wal;
          Alcotest.test_case "read-only open refuses" `Quick
            test_read_only_refuses_committed_wal;
          Alcotest.test_case "durable full cycle" `Quick test_durable_full_cycle;
        ] );
      ( "durable_repo",
        [
          Alcotest.test_case "load and reopen" `Quick test_durable_repo_survives_wal_replay;
          Alcotest.test_case "heap on durable pager" `Quick test_heap_on_durable_pager;
        ] );
    ]
