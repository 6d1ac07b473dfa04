(* Tests for crimson_storage: pager/buffer pool, slotted pages, heap
   files, B+tree, key encoding, records, tables and the database catalog. *)

module Page = Crimson_storage.Page
module Pager = Crimson_storage.Pager
module Error = Crimson_storage.Error
module Slotted = Crimson_storage.Slotted
module Heap = Crimson_storage.Heap
module Btree = Crimson_storage.Btree
module Key = Crimson_storage.Key
module Record = Crimson_storage.Record
module Table = Crimson_storage.Table
module Database = Crimson_storage.Database
module Prng = Crimson_util.Prng
module Cost = Crimson_obs.Cost

let check = Alcotest.check

let with_temp_dir f =
  let dir = Filename.temp_file "crimson" ".db" in
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

(* ------------------------------ Pager ------------------------------ *)

let test_pager_mem_roundtrip () =
  let p = Pager.create_mem () in
  let a = Pager.allocate p in
  let b = Pager.allocate p in
  check Alcotest.int "ids" 0 a;
  check Alcotest.int "ids" 1 b;
  Pager.with_page_mut p a (fun page -> Bytes.set page 0 'A');
  Pager.with_page_mut p b (fun page -> Bytes.set page 0 'B');
  check Alcotest.char "a" 'A' (Pager.with_page p a (fun page -> Bytes.get page 0));
  check Alcotest.char "b" 'B' (Pager.with_page p b (fun page -> Bytes.get page 0))

let test_pager_file_persistence () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.pages" in
      let p = Pager.create_file path in
      let id = Pager.allocate p in
      Pager.with_page_mut p id (fun page -> Bytes.blit_string "hello" 0 page 0 5);
      Pager.close p;
      let p2 = Pager.create_file path in
      check Alcotest.int "page count" 1 (Pager.page_count p2);
      check Alcotest.string "content" "hello"
        (Pager.with_page p2 id (fun page -> Bytes.sub_string page 0 5));
      Pager.close p2)

let test_pager_eviction_writes_back () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.pages" in
      (* Pool of 8 frames (minimum), 50 pages: forces evictions. *)
      let p = Pager.create_file ~pool_size:8 path in
      let c0 = Cost.snapshot () in
      for i = 0 to 49 do
        let id = Pager.allocate p in
        Pager.with_page_mut p id (fun page -> Crimson_util.Codec.set_u32 page 0 (i * 7))
      done;
      (* Read them all back through the small pool. *)
      for i = 0 to 49 do
        let v = Pager.with_page p i (fun page -> Crimson_util.Codec.get_u32 page 0) in
        check Alcotest.int (Printf.sprintf "page %d" i) (i * 7) v
      done;
      let c1 = Cost.current () in
      check Alcotest.bool "evictions happened" true (c1.pager_evictions > c0.pager_evictions);
      check Alcotest.bool "misses happened" true (c1.pager_misses > c0.pager_misses);
      check Alcotest.bool "resident bounded" true ((Pager.stats p).resident <= 8);
      Pager.close p)

let test_pager_hits_vs_misses () =
  let p = Pager.create_mem ~pool_size:8 () in
  let id = Pager.allocate p in
  let c0 = Cost.snapshot () in
  for _ = 1 to 100 do
    ignore (Pager.with_page p id (fun page -> Bytes.get page 0))
  done;
  let c1 = Cost.current () in
  check Alcotest.int "all hits" 100 (c1.pager_hits - c0.pager_hits);
  check Alcotest.int "no misses" 0 (c1.pager_misses - c0.pager_misses)

(* The process-global registry counters read the cost record: their
   deltas must equal the deltas of the domain's record, and a fresh
   page's allocation is no miss in either. *)
let test_pager_registry_counters () =
  let module Metrics = Crimson_obs.Metrics in
  let names =
    [
      ("storage.pager.hit", fun (c : Cost.t) -> c.pager_hits);
      ("storage.pager.miss", fun c -> c.pager_misses);
      ("storage.pager.read", fun c -> c.page_reads);
      ("storage.pager.write", fun c -> c.page_writes);
    ]
  in
  let registry () = List.map (fun (name, _) -> Metrics.counter_value name) names in
  let p = Pager.create_mem ~pool_size:8 () in
  let c0 = Cost.snapshot () and r0 = registry () in
  let id = Pager.allocate p in
  for _ = 1 to 50 do
    ignore (Pager.with_page p id (fun page -> Bytes.get page 0))
  done;
  let c1 = Cost.current () and r1 = registry () in
  check Alcotest.int "record hits" 50 (c1.pager_hits - c0.pager_hits);
  check Alcotest.int "allocation is no miss" 0 (c1.pager_misses - c0.pager_misses);
  List.iteri
    (fun i (name, get) ->
      check Alcotest.int (name ^ " tracks the record") (get c1 - get c0)
        (List.nth r1 i - List.nth r0 i))
    names;
  Pager.close p

let test_pager_out_of_range () =
  let p = Pager.create_mem () in
  Alcotest.check_raises "oob" (Invalid_argument "Pager: page 0 out of range [0,0)")
    (fun () -> Pager.with_page p 0 (fun _ -> ()))

let test_pager_closed () =
  let p = Pager.create_mem () in
  let id = Pager.allocate p in
  Pager.close p;
  Alcotest.check_raises "closed" (Invalid_argument "Pager: already closed") (fun () ->
      Pager.with_page p id (fun _ -> ()))

let test_pager_corrupt_file () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.pages" in
      let oc = open_out_bin path in
      output_string oc "short and unaligned";
      close_out oc;
      match Pager.create_file path with
      | exception Error.Error (Error.Corrupt_page _) -> ()
      | _ -> Alcotest.fail "expected Corrupt_page")

(* ----------------------------- Slotted ----------------------------- *)

let test_slotted_insert_read () =
  let page = Page.fresh () in
  Slotted.init page;
  let s0 = Option.get (Slotted.insert page "alpha") in
  let s1 = Option.get (Slotted.insert page "") in
  let s2 = Option.get (Slotted.insert page "gamma") in
  check Alcotest.int "slots" 3 (Slotted.count page);
  check (Alcotest.option Alcotest.string) "read0" (Some "alpha") (Slotted.read page s0);
  check (Alcotest.option Alcotest.string) "read empty" (Some "") (Slotted.read page s1);
  check (Alcotest.option Alcotest.string) "read2" (Some "gamma") (Slotted.read page s2)

let test_slotted_delete_tombstones () =
  let page = Page.fresh () in
  Slotted.init page;
  let s0 = Option.get (Slotted.insert page "one") in
  let s1 = Option.get (Slotted.insert page "two") in
  Slotted.delete page s0;
  check (Alcotest.option Alcotest.string) "deleted" None (Slotted.read page s0);
  check (Alcotest.option Alcotest.string) "survivor" (Some "two") (Slotted.read page s1);
  check Alcotest.int "live" 1 (Slotted.live_count page);
  check Alcotest.int "slots unchanged" 2 (Slotted.count page)

let test_slotted_fills_up () =
  let page = Page.fresh () in
  Slotted.init page;
  let payload = String.make 100 'x' in
  let inserted = ref 0 in
  let full = ref false in
  while not !full do
    match Slotted.insert page payload with
    | Some _ -> incr inserted
    | None -> full := true
  done;
  (* 4096 / (100 + 4) ≈ 39 records. *)
  check Alcotest.bool "plausible count" true (!inserted >= 35 && !inserted <= 40);
  (* Everything still readable. *)
  for s = 0 to !inserted - 1 do
    check (Alcotest.option Alcotest.string) "still there" (Some payload)
      (Slotted.read page s)
  done

let test_slotted_max_record () =
  let page = Page.fresh () in
  Slotted.init page;
  let big = String.make Slotted.max_record 'y' in
  (match Slotted.insert page big with
  | Some s -> check (Alcotest.option Alcotest.string) "max fits" (Some big) (Slotted.read page s)
  | None -> Alcotest.fail "max_record must fit in an empty page");
  let page2 = Page.fresh () in
  Slotted.init page2;
  match Slotted.insert page2 (String.make (Slotted.max_record + 1) 'z') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized record accepted"

let test_slotted_directory_exhaustion () =
  (* Zero-length records consume only directory entries; the page must
     refuse inserts when the directory reaches the data area instead of
     writing past the page end (regression: found by the heap model
     property test). *)
  let page = Page.fresh () in
  Slotted.init page;
  let inserted = ref 0 in
  let full = ref false in
  while not !full do
    match Slotted.insert page "" with
    | Some _ -> incr inserted
    | None -> full := true
  done;
  (* Header 4 + 4 bytes per directory entry: (4096-4)/4 = 1023 slots. *)
  check Alcotest.int "directory capacity" 1023 !inserted;
  for s = 0 to !inserted - 1 do
    if Slotted.read page s <> Some "" then Alcotest.failf "slot %d corrupted" s
  done

let test_heap_many_empty_records () =
  (* The heap must roll to fresh pages when a slot directory fills. *)
  let h = Heap.create (Pager.create_mem ~pool_size:8 ()) in
  let rids = Array.init 3000 (fun _ -> Heap.insert h "") in
  Array.iter
    (fun rid ->
      if Heap.get h rid <> Some "" then Alcotest.fail "empty record lost")
    rids;
  check Alcotest.int "count" 3000 (Heap.record_count h)

let test_slotted_bad_slot () =
  let page = Page.fresh () in
  Slotted.init page;
  Alcotest.check_raises "bad slot" (Invalid_argument "Slotted.read: slot 0 out of range [0,0)")
    (fun () -> ignore (Slotted.read page 0))

(* ------------------------------- Heap ------------------------------ *)

let test_heap_insert_get () =
  let h = Heap.create (Pager.create_mem ()) in
  let r1 = Heap.insert h "first" in
  let r2 = Heap.insert h "second" in
  check (Alcotest.option Alcotest.string) "get1" (Some "first") (Heap.get h r1);
  check (Alcotest.option Alcotest.string) "get2" (Some "second") (Heap.get h r2);
  check Alcotest.int "count" 2 (Heap.record_count h)

let test_heap_many_pages () =
  let h = Heap.create (Pager.create_mem ()) in
  let payload i = Printf.sprintf "record-%06d-%s" i (String.make 200 'p') in
  let rids = Array.init 200 (fun i -> Heap.insert h (payload i)) in
  Array.iteri
    (fun i rid ->
      check (Alcotest.option Alcotest.string) "get" (Some (payload i)) (Heap.get h rid))
    rids;
  (* Spread across multiple pages. *)
  check Alcotest.bool "multiple pages" true
    (Heap.rid_page rids.(199) > Heap.rid_page rids.(0))

let test_heap_delete_and_iter () =
  let h = Heap.create (Pager.create_mem ()) in
  let r1 = Heap.insert h "a" in
  let _r2 = Heap.insert h "b" in
  let r3 = Heap.insert h "c" in
  Heap.delete h r1;
  let seen = ref [] in
  Heap.iter h (fun rid s -> seen := (rid, s) :: !seen);
  check Alcotest.int "live" 2 (List.length !seen);
  check Alcotest.bool "c present" true (List.exists (fun (_, s) -> s = "c") !seen);
  check (Alcotest.option Alcotest.string) "deleted" None (Heap.get h r1);
  check (Alcotest.option Alcotest.string) "alive" (Some "c") (Heap.get h r3)

let test_heap_persistence () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.heap" in
      let p = Pager.create_file path in
      let h = Heap.create p in
      let rid = Heap.insert h "durable" in
      Heap.flush h;
      Pager.close p;
      let p2 = Pager.create_file path in
      let h2 = Heap.create p2 in
      check (Alcotest.option Alcotest.string) "reopened" (Some "durable") (Heap.get h2 rid);
      Pager.close p2)

let test_heap_rejects_foreign_file () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.btree" in
      let p = Pager.create_file path in
      let _bt = Btree.create p in
      Pager.close p;
      let p2 = Pager.create_file path in
      match Heap.create p2 with
      | exception Error.Error (Error.Corrupt_page _) -> Pager.close p2
      | _ -> Alcotest.fail "heap opened a btree file")

let test_heap_rid_packing () =
  let rid = Heap.rid_make ~page:12345 ~slot:678 in
  check Alcotest.int "page" 12345 (Heap.rid_page rid);
  check Alcotest.int "slot" 678 (Heap.rid_slot rid);
  check Alcotest.string "to_string" "12345:678" (Heap.rid_to_string rid)

(* ------------------------------ B+tree ----------------------------- *)

let test_btree_basic () =
  let bt = Btree.create (Pager.create_mem ()) in
  Btree.insert bt ~key:"beta" 2;
  Btree.insert bt ~key:"alpha" 1;
  Btree.insert bt ~key:"gamma" 3;
  check (Alcotest.option Alcotest.int) "find" (Some 1) (Btree.find bt ~key:"alpha");
  check (Alcotest.option Alcotest.int) "find" (Some 3) (Btree.find bt ~key:"gamma");
  check (Alcotest.option Alcotest.int) "missing" None (Btree.find bt ~key:"delta");
  check Alcotest.int "count" 3 (Btree.entry_count bt)

let test_btree_overwrite () =
  let bt = Btree.create (Pager.create_mem ()) in
  Btree.insert bt ~key:"k" 1;
  Btree.insert bt ~key:"k" 2;
  check (Alcotest.option Alcotest.int) "overwritten" (Some 2) (Btree.find bt ~key:"k");
  check Alcotest.int "single entry" 1 (Btree.entry_count bt)

let test_btree_bulk_and_splits () =
  let bt = Btree.create (Pager.create_mem ()) in
  let n = 5000 in
  let rng = Prng.create 31 in
  let keys = Array.init n (fun i -> Printf.sprintf "key-%08d" i) in
  Prng.shuffle rng keys;
  Array.iteri (fun i k -> Btree.insert bt ~key:k (i + 1)) keys;
  check Alcotest.int "count" n (Btree.entry_count bt);
  check Alcotest.bool "grew levels" true (Btree.height bt >= 2);
  (* Every key findable. *)
  Array.iteri
    (fun i k ->
      match Btree.find bt ~key:k with
      | Some v when v = i + 1 -> ()
      | Some v -> Alcotest.failf "key %s: got %d want %d" k v (i + 1)
      | None -> Alcotest.failf "key %s missing" k)
    keys;
  (* In-order iteration is sorted. *)
  let prev = ref "" in
  Btree.iter_all bt (fun k _ ->
      if String.compare !prev k >= 0 then Alcotest.failf "order violation at %s" k;
      prev := k;
      true);
  match Btree.validate bt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid tree: %s" e

let test_btree_range_iteration () =
  let bt = Btree.create (Pager.create_mem ()) in
  for i = 0 to 99 do
    Btree.insert bt ~key:(Printf.sprintf "%04d" i) i
  done;
  let seen = ref [] in
  Btree.iter_from bt ~key:"0042" (fun k v ->
      seen := (k, v) :: !seen;
      List.length !seen < 5);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "range" [ ("0042", 42); ("0043", 43); ("0044", 44); ("0045", 45); ("0046", 46) ]
    (List.rev !seen)

let test_btree_prefix_iteration () =
  let bt = Btree.create (Pager.create_mem ()) in
  List.iter
    (fun (k, v) -> Btree.insert bt ~key:k v)
    [ ("app", 0); ("apple", 1); ("apply", 2); ("banana", 3); ("apricot", 4) ];
  let seen = ref [] in
  Btree.iter_prefix bt ~prefix:"appl" (fun k _ ->
      seen := k :: !seen;
      true);
  check (Alcotest.list Alcotest.string) "prefix" [ "apple"; "apply" ] (List.rev !seen)

let test_btree_delete () =
  let bt = Btree.create (Pager.create_mem ()) in
  for i = 0 to 499 do
    Btree.insert bt ~key:(Printf.sprintf "%05d" i) i
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then
      check Alcotest.bool "deleted" true (Btree.delete bt ~key:(Printf.sprintf "%05d" i))
  done;
  check Alcotest.bool "already gone" false (Btree.delete bt ~key:"00000");
  check Alcotest.int "remaining" 250 (Btree.entry_count bt);
  for i = 0 to 499 do
    let expected = if i mod 2 = 0 then None else Some i in
    check (Alcotest.option Alcotest.int) "post-delete" expected
      (Btree.find bt ~key:(Printf.sprintf "%05d" i))
  done

let test_btree_persistence () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.idx" in
      let p = Pager.create_file ~pool_size:16 path in
      let bt = Btree.create p in
      for i = 0 to 2000 do
        Btree.insert bt ~key:(Printf.sprintf "k%06d" i) i
      done;
      Btree.flush bt;
      Pager.close p;
      let p2 = Pager.create_file ~pool_size:16 path in
      let bt2 = Btree.create p2 in
      check Alcotest.int "count preserved" 2001 (Btree.entry_count bt2);
      check (Alcotest.option Alcotest.int) "lookup" (Some 1234)
        (Btree.find bt2 ~key:"k001234");
      (match Btree.validate bt2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid after reopen: %s" e);
      Pager.close p2)

let test_btree_key_validation () =
  let bt = Btree.create (Pager.create_mem ()) in
  Alcotest.check_raises "empty key" (Invalid_argument "Btree.insert: empty key")
    (fun () -> Btree.insert bt ~key:"" 1);
  let long = String.make (Btree.max_key + 1) 'k' in
  match Btree.insert bt ~key:long 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized key accepted"

let btree_model =
  QCheck.Test.make ~name:"btree matches Map model" ~count:60
    QCheck.(list (pair (string_of_size (QCheck.Gen.int_range 1 20)) (int_bound 1000)))
  @@ fun ops ->
  let bt = Btree.create (Pager.create_mem ()) in
  let model = ref (List.fold_left (fun m (k, v) ->
      if k = "" then m else (Btree.insert bt ~key:k v;
      (* interleave deletes deterministically *)
      if v mod 7 = 0 then begin ignore (Btree.delete bt ~key:k);
        List.remove_assoc k m end
      else (k, v) :: List.remove_assoc k m)) [] ops) in
  (* Compare full contents. *)
  let got = ref [] in
  Btree.iter_all bt (fun k v ->
      got := (k, v) :: !got;
      true);
  let expected = List.sort compare !model in
  let got = List.sort compare !got in
  ignore (Btree.validate bt = Ok ());
  got = expected && Btree.validate bt = Ok ()

let test_btree_cursor_ordering () =
  let bt = Btree.create (Pager.create_mem ()) in
  let n = 2500 in
  let rng = Prng.create 77 in
  let ids = Array.init n (fun i -> i) in
  Prng.shuffle rng ids;
  Array.iter (fun i -> Btree.insert bt ~key:(Printf.sprintf "c%06d" i) i) ids;
  (* From the very beginning: every entry, ascending. *)
  let cur = Btree.cursor bt ~key:"" in
  let count = ref 0 in
  let prev = ref "" in
  let rec drain () =
    match Btree.Cursor.next cur with
    | None -> ()
    | Some (k, _) ->
        if String.compare !prev k >= 0 then Alcotest.failf "order violation at %s" k;
        prev := k;
        incr count;
        drain ()
  in
  drain ();
  check Alcotest.int "streamed all" n !count;
  check Alcotest.bool "multi-leaf tree" true (Btree.height bt >= 2);
  (* Mid-range start: positioned at the first key >= the seek key, even
     when the seek key itself is absent. *)
  let cur = Btree.cursor bt ~key:"c001233x" in
  (match Btree.Cursor.next cur with
  | Some (k, v) ->
      check Alcotest.string "seek lands after" "c001234" k;
      check Alcotest.int "value" 1234 v
  | None -> Alcotest.fail "cursor empty mid-range");
  (* Beyond the last key: immediately exhausted, and stays so. *)
  let cur = Btree.cursor bt ~key:"d" in
  check Alcotest.bool "past end" true (Btree.Cursor.next cur = None);
  check Alcotest.bool "still exhausted" true (Btree.Cursor.next cur = None)

let test_btree_cursor_skips_emptied_leaves () =
  let bt = Btree.create (Pager.create_mem ()) in
  for i = 0 to 1999 do
    Btree.insert bt ~key:(Printf.sprintf "e%06d" i) i
  done;
  (* Empty out a middle run long enough to cover whole leaves — deletes
     never rebalance, so the chain retains empty leaves to skip. *)
  for i = 500 to 1499 do
    ignore (Btree.delete bt ~key:(Printf.sprintf "e%06d" i))
  done;
  let cur = Btree.cursor bt ~key:"e000499" in
  (match Btree.Cursor.next cur with
  | Some (k, _) -> check Alcotest.string "last before gap" "e000499" k
  | None -> Alcotest.fail "cursor empty");
  (match Btree.Cursor.next cur with
  | Some (k, _) -> check Alcotest.string "first after gap" "e001500" k
  | None -> Alcotest.fail "gap not crossed")

let test_btree_scan_range () =
  let bt = Btree.create (Pager.create_mem ()) in
  for i = 0 to 99 do
    Btree.insert bt ~key:(Printf.sprintf "%04d" i) i
  done;
  let seen = ref [] in
  Btree.scan_range bt ~lo:"0010" ~hi:"0013" (fun k _ ->
      seen := k :: !seen;
      true);
  check
    (Alcotest.list Alcotest.string)
    "half-open range"
    [ "0010"; "0011"; "0012" ]
    (List.rev !seen);
  let seen = ref 0 in
  Btree.scan_range bt ~lo:"0050" ~hi:"0050" (fun _ _ ->
      incr seen;
      true);
  check Alcotest.int "empty range" 0 !seen

let test_btree_max_binding () =
  let bt = Btree.create (Pager.create_mem ()) in
  check Alcotest.bool "empty" true (Btree.max_binding bt = None);
  for i = 0 to 1999 do
    Btree.insert bt ~key:(Printf.sprintf "m%06d" i) i
  done;
  (match Btree.max_binding bt with
  | Some (k, v) ->
      check Alcotest.string "max key" "m001999" k;
      check Alcotest.int "max value" 1999 v
  | None -> Alcotest.fail "lost the max");
  (* Delete the top half in descending order: the rightmost leaf ends up
     empty, forcing the leaf-chain fallback. *)
  for i = 1999 downto 1000 do
    ignore (Btree.delete bt ~key:(Printf.sprintf "m%06d" i))
  done;
  (match Btree.max_binding bt with
  | Some (k, _) -> check Alcotest.string "max after deletes" "m000999" k
  | None -> Alcotest.fail "max lost after deletes");
  Btree.insert bt ~key:"zzz" 7;
  match Btree.max_binding bt with
  | Some (k, _) -> check Alcotest.string "max after reinsert" "zzz" k
  | None -> Alcotest.fail "max lost after reinsert"

(* ------------------------------- Key -------------------------------- *)

let test_key_int_order () =
  let values = [ min_int + 1; -1000; -1; 0; 1; 42; 1000; max_int ] in
  let encoded = List.map Key.int values in
  let sorted = List.sort String.compare encoded in
  check (Alcotest.list Alcotest.string) "int order preserved" encoded sorted

let test_key_float_order () =
  let values = [ neg_infinity; -1e10; -1.5; -0.0; 0.0; 1e-10; 1.5; 1e10; infinity ] in
  let encoded = List.map Key.float values in
  let sorted = List.sort String.compare encoded in
  check (Alcotest.list Alcotest.string) "float order preserved" encoded sorted

let test_key_text_order_and_escaping () =
  let values = [ ""; "a"; "a\x00b"; "ab"; "b" ] in
  let encoded = List.map Key.text values in
  let sorted = List.sort String.compare encoded in
  check (Alcotest.list Alcotest.string) "text order preserved" encoded sorted;
  (* Round trip through decode. *)
  List.iter
    (fun s ->
      let enc = Key.text s in
      let dec, next = Key.decode_text enc ~pos:0 in
      check Alcotest.string "text roundtrip" s dec;
      check Alcotest.int "consumed all" (String.length enc) next)
    values

let test_key_composite () =
  (* (text, int) composites sort by text then int. *)
  let mk t i = Key.cat [ Key.text t; Key.int i ] in
  let pairs = [ ("a", 2); ("a", 10); ("ab", 1); ("b", 0) ] in
  let encoded = List.map (fun (t, i) -> mk t i) pairs in
  let sorted = List.sort String.compare encoded in
  check (Alcotest.list Alcotest.string) "composite order" encoded sorted

let test_key_int_roundtrip () =
  List.iter
    (fun v ->
      let dec, _ = Key.decode_int (Key.int v) ~pos:0 in
      check Alcotest.int "int roundtrip" v dec)
    [ min_int; -1; 0; 1; max_int ]

let key_order_prop =
  QCheck.Test.make ~name:"Key.int preserves order" ~count:1000 QCheck.(pair int int)
  @@ fun (a, b) -> Int.compare a b = String.compare (Key.int a) (Key.int b)

let key_text_prop =
  QCheck.Test.make ~name:"Key.text preserves order" ~count:1000
    QCheck.(pair printable_string printable_string)
  @@ fun (a, b) ->
  Int.compare (String.compare a b) 0
  = Int.compare (String.compare (Key.text a) (Key.text b)) 0

(* ------------------------------ Record ----------------------------- *)

let schema : Record.schema =
  [| ("id", Record.Int); ("weight", Record.Float); ("name", Record.Text); ("data", Record.Blob) |]

let test_record_roundtrip () =
  let row =
    [| Record.VInt 42; Record.VFloat 1.25; Record.VText "Bha"; Record.VBlob "\x00\x01" |]
  in
  let row' = Record.decode schema (Record.encode schema row) in
  check Alcotest.bool "roundtrip" true (row = row')

let test_record_negative_int () =
  let row = [| Record.VInt (-7); Record.VFloat (-0.5); Record.VText ""; Record.VBlob "" |] in
  check Alcotest.bool "negatives" true (row = Record.decode schema (Record.encode schema row))

let test_record_type_errors () =
  (match Record.encode schema [| Record.VInt 1 |] with
  | exception Record.Type_error _ -> ()
  | _ -> Alcotest.fail "arity not checked");
  match
    Record.encode schema
      [| Record.VText "wrong"; Record.VFloat 0.0; Record.VText ""; Record.VBlob "" |]
  with
  | exception Record.Type_error _ -> ()
  | _ -> Alcotest.fail "type not checked"

let test_record_trailing_bytes () =
  let row = [| Record.VInt 1; Record.VFloat 0.0; Record.VText "x"; Record.VBlob "" |] in
  let payload = Record.encode schema row ^ "junk" in
  match Record.decode schema payload with
  | exception Record.Type_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

let test_record_schema_roundtrip () =
  let s' = Record.decode_schema (Record.encode_schema schema) in
  check Alcotest.bool "schema roundtrip" true (schema = s')

let test_record_accessors () =
  let row = [| Record.VInt 9; Record.VFloat 2.5; Record.VText "t"; Record.VBlob "b" |] in
  check Alcotest.int "int" 9 (Record.get_int row 0);
  check (Alcotest.float 0.0) "float" 2.5 (Record.get_float row 1);
  check Alcotest.string "text" "t" (Record.get_text row 2);
  check Alcotest.string "blob" "b" (Record.get_blob row 3);
  match Record.get_int row 2 with
  | exception Record.Type_error _ -> ()
  | _ -> Alcotest.fail "wrong accessor accepted"

(* ------------------------------ Table ------------------------------ *)

let species_schema : Record.schema =
  [| ("name", Record.Text); ("tree", Record.Int); ("dist", Record.Float) |]

let name_ix : Table.index_spec =
  {
    Table.index_name = "by_name";
    key_of_row = (fun row -> Some (Key.text (Record.get_text row 0)));
    unique = true;
  }

let dist_ix : Table.index_spec =
  {
    Table.index_name = "by_dist";
    key_of_row = (fun row -> Some (Key.float (Record.get_float row 2)));
    unique = false;
  }

let make_table db = Database.table db ~name:"species" ~schema:species_schema
    ~indexes:[ name_ix; dist_ix ]

let test_table_insert_lookup () =
  let db = Database.open_mem () in
  let t = make_table db in
  let rid =
    Table.insert t [| Record.VText "Bha"; Record.VInt 1; Record.VFloat 1.25 |]
  in
  ignore (Table.insert t [| Record.VText "Lla"; Record.VInt 1; Record.VFloat 2.25 |]);
  check Alcotest.int "rows" 2 (Table.row_count t);
  (match Table.get t rid with
  | Some row -> check Alcotest.string "by rid" "Bha" (Record.get_text row 0)
  | None -> Alcotest.fail "row lost");
  match Table.find t ~index:"by_name" ~key:(Key.text "Lla") with
  | Some (_, row) -> check (Alcotest.float 0.0) "indexed" 2.25 (Record.get_float row 2)
  | None -> Alcotest.fail "index lookup failed"

let test_table_unique_violation () =
  let db = Database.open_mem () in
  let t = make_table db in
  ignore (Table.insert t [| Record.VText "Bha"; Record.VInt 1; Record.VFloat 1.0 |]);
  match Table.insert t [| Record.VText "Bha"; Record.VInt 2; Record.VFloat 2.0 |] with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_table_non_unique_index () =
  let db = Database.open_mem () in
  let t = make_table db in
  ignore (Table.insert t [| Record.VText "A"; Record.VInt 1; Record.VFloat 1.0 |]);
  ignore (Table.insert t [| Record.VText "B"; Record.VInt 1; Record.VFloat 1.0 |]);
  ignore (Table.insert t [| Record.VText "C"; Record.VInt 1; Record.VFloat 2.0 |]);
  let seen = ref [] in
  Table.iter_index t ~index:"by_dist" ~prefix:(Key.float 1.0) (fun _ row ->
      seen := Record.get_text row 0 :: !seen;
      true);
  check (Alcotest.list Alcotest.string) "duplicates found" [ "A"; "B" ] (List.rev !seen)

let test_table_delete_maintains_indexes () =
  let db = Database.open_mem () in
  let t = make_table db in
  let rid = Table.insert t [| Record.VText "Gone"; Record.VInt 1; Record.VFloat 3.0 |] in
  check Alcotest.bool "delete" true (Table.delete t rid);
  check Alcotest.bool "idempotent" false (Table.delete t rid);
  check (Alcotest.option Alcotest.bool) "index cleaned" None
    (Option.map (fun _ -> true) (Table.find t ~index:"by_name" ~key:(Key.text "Gone")));
  (* Name reusable after delete. *)
  ignore (Table.insert t [| Record.VText "Gone"; Record.VInt 2; Record.VFloat 4.0 |])

let test_table_update () =
  let db = Database.open_mem () in
  let t = make_table db in
  let rid = Table.insert t [| Record.VText "X"; Record.VInt 1; Record.VFloat 1.0 |] in
  let rid' = Table.update t rid [| Record.VText "Y"; Record.VInt 1; Record.VFloat 9.0 |] in
  check (Alcotest.option Alcotest.bool) "old name gone" None
    (Option.map (fun _ -> true) (Table.find t ~index:"by_name" ~key:(Key.text "X")));
  match Table.get t rid' with
  | Some row -> check Alcotest.string "new row" "Y" (Record.get_text row 0)
  | None -> Alcotest.fail "updated row missing"

let test_table_scan () =
  let db = Database.open_mem () in
  let t = make_table db in
  for i = 0 to 9 do
    ignore
      (Table.insert t
         [| Record.VText (Printf.sprintf "S%d" i); Record.VInt i; Record.VFloat 0.0 |])
  done;
  let n = ref 0 in
  Table.scan t (fun _ _ -> incr n);
  check Alcotest.int "scanned" 10 !n

let test_table_cursor_duplicates () =
  let db = Database.open_mem () in
  let t = make_table db in
  (* Several rows under the same non-unique key, plus neighbours. *)
  ignore (Table.insert t [| Record.VText "A"; Record.VInt 1; Record.VFloat 1.0 |]);
  ignore (Table.insert t [| Record.VText "B"; Record.VInt 1; Record.VFloat 1.0 |]);
  ignore (Table.insert t [| Record.VText "C"; Record.VInt 1; Record.VFloat 1.0 |]);
  ignore (Table.insert t [| Record.VText "D"; Record.VInt 1; Record.VFloat 0.5 |]);
  ignore (Table.insert t [| Record.VText "E"; Record.VInt 1; Record.VFloat 2.0 |]);
  (* The cursor must agree with iter_index on a duplicate-key prefix:
     every duplicate, in stable (insertion-rid) order, nothing else. *)
  let via_iter = ref [] in
  Table.iter_index t ~index:"by_dist" ~prefix:(Key.float 1.0) (fun _ row ->
      via_iter := Record.get_text row 0 :: !via_iter;
      true);
  let cur = Table.cursor t ~index:"by_dist" ~prefix:(Key.float 1.0) in
  let via_cursor = ref [] in
  let rec drain () =
    match Table.Cursor.next cur with
    | None -> ()
    | Some (_, row) ->
        via_cursor := Record.get_text row 0 :: !via_cursor;
        drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "duplicates in rid order" [ "A"; "B"; "C" ]
    (List.rev !via_cursor);
  check (Alcotest.list Alcotest.string) "matches iter_index" (List.rev !via_iter)
    (List.rev !via_cursor);
  (* A unique-index cursor with an empty prefix streams the whole table
     in key order. *)
  let cur = Table.cursor t ~index:"by_name" ~prefix:"" in
  let names = ref [] in
  let rec drain () =
    match Table.Cursor.next cur with
    | None -> ()
    | Some (_, row) ->
        names := Record.get_text row 0 :: !names;
        drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "full order" [ "A"; "B"; "C"; "D"; "E" ]
    (List.rev !names)

let test_table_cursor_start_and_deletes () =
  let db = Database.open_mem () in
  let t = make_table db in
  for i = 0 to 9 do
    ignore
      (Table.insert t
         [| Record.VText (Printf.sprintf "S%d" i); Record.VInt i; Record.VFloat 0.0 |])
  done;
  (* Mid-range start key inside the prefix. Text encodings are
     terminated, so the byte prefix covering every S* key is the raw
     "S", not [Key.text "S"]. *)
  let cur = Table.cursor t ~index:"by_name" ~prefix:"S" ~start:(Key.text "S7") in
  (match Table.Cursor.next cur with
  | Some (_, row) -> check Alcotest.string "start honoured" "S7" (Record.get_text row 0)
  | None -> Alcotest.fail "cursor empty at start key");
  (* Rows deleted after index entries were yielded are skipped, not
     surfaced as ghosts. *)
  (match Table.find t ~index:"by_name" ~key:(Key.text "S8") with
  | Some (rid, _) -> ignore (Table.delete t rid)
  | None -> Alcotest.fail "S8 missing");
  (match Table.Cursor.next cur with
  | Some (_, row) -> check Alcotest.string "delete skipped" "S9" (Record.get_text row 0)
  | None -> Alcotest.fail "cursor ended early")

let test_table_scan_range_and_last_entry () =
  let db = Database.open_mem () in
  let t = make_table db in
  check Alcotest.bool "empty last_entry" true
    (Table.last_entry t ~index:"by_name" = None);
  for i = 0 to 9 do
    ignore
      (Table.insert t
         [| Record.VText (Printf.sprintf "S%d" i); Record.VInt i; Record.VFloat 0.0 |])
  done;
  let seen = ref [] in
  Table.scan_range t ~index:"by_name" ~lo:(Key.text "S3") ~hi:(Key.text "S6")
    (fun _ row ->
      seen := Record.get_text row 0 :: !seen;
      true);
  check (Alcotest.list Alcotest.string) "range rows" [ "S3"; "S4"; "S5" ]
    (List.rev !seen);
  (match Table.last_entry t ~index:"by_name" with
  | Some (_, row) -> check Alcotest.string "last" "S9" (Record.get_text row 0)
  | None -> Alcotest.fail "last_entry lost");
  (match Table.find t ~index:"by_name" ~key:(Key.text "S9") with
  | Some (rid, _) -> ignore (Table.delete t rid)
  | None -> Alcotest.fail "S9 missing");
  match Table.last_entry t ~index:"by_name" with
  | Some (_, row) -> check Alcotest.string "last after delete" "S8" (Record.get_text row 0)
  | None -> Alcotest.fail "last_entry lost after delete"

(* ----------------------------- Database ---------------------------- *)

let test_database_persistence_and_reopen () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let t = make_table db in
      for i = 0 to 99 do
        ignore
          (Table.insert t
             [|
               Record.VText (Printf.sprintf "Sp%03d" i);
               Record.VInt i;
               Record.VFloat (float_of_int i);
             |])
      done;
      Database.close db;
      let db2 = Database.open_dir dir in
      check (Alcotest.list Alcotest.string) "catalog" [ "species" ]
        (Database.table_names db2);
      let t2 = make_table db2 in
      check Alcotest.int "rows survive" 100 (Table.row_count t2);
      (match Table.find t2 ~index:"by_name" ~key:(Key.text "Sp042") with
      | Some (_, row) -> check Alcotest.int "content" 42 (Record.get_int row 1)
      | None -> Alcotest.fail "lookup after reopen");
      Database.close db2)

let test_database_schema_mismatch () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      ignore (make_table db);
      Database.close db;
      let db2 = Database.open_dir dir in
      let other : Record.schema = [| ("x", Record.Int) |] in
      (match Database.table db2 ~name:"species" ~schema:other ~indexes:[] with
      | exception Database.Schema_mismatch _ -> ()
      | _ -> Alcotest.fail "schema mismatch accepted");
      Database.close db2)

let test_database_index_rebuild () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let t = make_table db in
      for i = 0 to 49 do
        ignore
          (Table.insert t
             [|
               Record.VText (Printf.sprintf "R%03d" i);
               Record.VInt i;
               Record.VFloat (float_of_int i);
             |])
      done;
      Database.close db;
      (* Simulate index-file loss. *)
      Sys.remove (Filename.concat dir "species.by_name.idx");
      let db2 = Database.open_dir dir in
      let t2 = make_table db2 in
      (match Table.find t2 ~index:"by_name" ~key:(Key.text "R025") with
      | Some (_, row) -> check Alcotest.int "rebuilt" 25 (Record.get_int row 1)
      | None -> Alcotest.fail "index not rebuilt");
      Database.close db2)

let test_database_drop_table () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      ignore (make_table db);
      Database.drop_table db "species";
      check (Alcotest.list Alcotest.string) "dropped" [] (Database.table_names db);
      check Alcotest.bool "files gone" false
        (Sys.file_exists (Filename.concat dir "species.heap"));
      (match Database.drop_table db "species" with
      | exception Not_found -> ()
      | _ -> Alcotest.fail "double drop");
      Database.close db)

(* A database's pools charge the calling domain: an indexed lookup
   counts one find, one decoded row and one page — the heap's, as the
   index root is already held decoded. *)
let test_database_pager_stats () =
  let db = Database.open_mem () in
  let t = make_table db in
  ignore (Table.insert t [| Record.VText "A"; Record.VInt 1; Record.VFloat 1.0 |]);
  let c0 = Cost.snapshot () in
  ignore (Table.find t ~index:"by_name" ~key:(Key.text "A"));
  let c1 = Cost.current () in
  check Alcotest.int "one index find" 1 (c1.btree_finds - c0.btree_finds);
  check Alcotest.int "one row decoded" 1 (c1.rows_decoded - c0.rows_decoded);
  check Alcotest.int "one heap page" 1 (Cost.pages c1 - Cost.pages c0);
  Database.close db

(* Big integration: a table spanning many pages with both indexes under
   a tiny buffer pool, exercising eviction during btree splits. *)
let test_integration_small_pool () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~pool_size:8 dir in
      let t = make_table db in
      let n = 2000 in
      for i = 0 to n - 1 do
        ignore
          (Table.insert t
             [|
               Record.VText (Printf.sprintf "Taxon%05d" i);
               Record.VInt i;
               Record.VFloat (float_of_int (i mod 17));
             |])
      done;
      check Alcotest.int "all rows" n (Table.row_count t);
      for i = 0 to 99 do
        let name = Printf.sprintf "Taxon%05d" (i * 17) in
        match Table.find t ~index:"by_name" ~key:(Key.text name) with
        | Some (_, row) -> check Alcotest.int "value" (i * 17) (Record.get_int row 1)
        | None -> Alcotest.failf "lost %s" name
      done;
      Database.close db)

let () =
  Alcotest.run "crimson_storage"
    [
      ( "pager",
        [
          Alcotest.test_case "memory round trip" `Quick test_pager_mem_roundtrip;
          Alcotest.test_case "file persistence" `Quick test_pager_file_persistence;
          Alcotest.test_case "eviction write-back" `Quick test_pager_eviction_writes_back;
          Alcotest.test_case "hit accounting" `Quick test_pager_hits_vs_misses;
          Alcotest.test_case "registry counters" `Quick test_pager_registry_counters;
          Alcotest.test_case "out of range" `Quick test_pager_out_of_range;
          Alcotest.test_case "closed pager" `Quick test_pager_closed;
          Alcotest.test_case "corrupt file" `Quick test_pager_corrupt_file;
        ] );
      ( "slotted",
        [
          Alcotest.test_case "insert/read" `Quick test_slotted_insert_read;
          Alcotest.test_case "delete tombstones" `Quick test_slotted_delete_tombstones;
          Alcotest.test_case "fills up" `Quick test_slotted_fills_up;
          Alcotest.test_case "max record" `Quick test_slotted_max_record;
          Alcotest.test_case "directory exhaustion" `Quick
            test_slotted_directory_exhaustion;
          Alcotest.test_case "bad slot" `Quick test_slotted_bad_slot;
        ] );
      ( "heap",
        [
          Alcotest.test_case "insert/get" `Quick test_heap_insert_get;
          Alcotest.test_case "many pages" `Quick test_heap_many_pages;
          Alcotest.test_case "many empty records" `Quick test_heap_many_empty_records;
          Alcotest.test_case "delete and iterate" `Quick test_heap_delete_and_iter;
          Alcotest.test_case "persistence" `Quick test_heap_persistence;
          Alcotest.test_case "magic check" `Quick test_heap_rejects_foreign_file;
          Alcotest.test_case "rid packing" `Quick test_heap_rid_packing;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "overwrite" `Quick test_btree_overwrite;
          Alcotest.test_case "bulk inserts and splits" `Quick test_btree_bulk_and_splits;
          Alcotest.test_case "range iteration" `Quick test_btree_range_iteration;
          Alcotest.test_case "prefix iteration" `Quick test_btree_prefix_iteration;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "persistence" `Quick test_btree_persistence;
          Alcotest.test_case "key validation" `Quick test_btree_key_validation;
          Alcotest.test_case "cursor ordering" `Quick test_btree_cursor_ordering;
          Alcotest.test_case "cursor skips emptied leaves" `Quick
            test_btree_cursor_skips_emptied_leaves;
          Alcotest.test_case "scan_range" `Quick test_btree_scan_range;
          Alcotest.test_case "max_binding" `Quick test_btree_max_binding;
          QCheck_alcotest.to_alcotest btree_model;
        ] );
      ( "key",
        [
          Alcotest.test_case "int order" `Quick test_key_int_order;
          Alcotest.test_case "float order" `Quick test_key_float_order;
          Alcotest.test_case "text order and escaping" `Quick
            test_key_text_order_and_escaping;
          Alcotest.test_case "composite order" `Quick test_key_composite;
          Alcotest.test_case "int roundtrip" `Quick test_key_int_roundtrip;
          QCheck_alcotest.to_alcotest key_order_prop;
          QCheck_alcotest.to_alcotest key_text_prop;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "negative values" `Quick test_record_negative_int;
          Alcotest.test_case "type errors" `Quick test_record_type_errors;
          Alcotest.test_case "trailing bytes" `Quick test_record_trailing_bytes;
          Alcotest.test_case "schema roundtrip" `Quick test_record_schema_roundtrip;
          Alcotest.test_case "accessors" `Quick test_record_accessors;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert and lookup" `Quick test_table_insert_lookup;
          Alcotest.test_case "unique violation" `Quick test_table_unique_violation;
          Alcotest.test_case "non-unique index" `Quick test_table_non_unique_index;
          Alcotest.test_case "delete maintains indexes" `Quick
            test_table_delete_maintains_indexes;
          Alcotest.test_case "update" `Quick test_table_update;
          Alcotest.test_case "scan" `Quick test_table_scan;
          Alcotest.test_case "cursor duplicates" `Quick test_table_cursor_duplicates;
          Alcotest.test_case "cursor start and deletes" `Quick
            test_table_cursor_start_and_deletes;
          Alcotest.test_case "scan_range and last_entry" `Quick
            test_table_scan_range_and_last_entry;
        ] );
      ( "database",
        [
          Alcotest.test_case "persistence and reopen" `Quick
            test_database_persistence_and_reopen;
          Alcotest.test_case "schema mismatch" `Quick test_database_schema_mismatch;
          Alcotest.test_case "index rebuild" `Quick test_database_index_rebuild;
          Alcotest.test_case "drop table" `Quick test_database_drop_table;
          Alcotest.test_case "pager stats" `Quick test_database_pager_stats;
          Alcotest.test_case "small pool integration" `Slow test_integration_small_pool;
        ] );
    ]
