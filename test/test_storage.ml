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
module Clustered = Crimson_storage.Clustered
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

(* A pool allocates a frame's buffer the first time the frame holds a
   page. Against a model LRU kept here, random traces of reads, writes,
   nested pins and allocations over files smaller and larger than pools
   of 8-32 pages must give the same hits, misses, evictions, backend
   reads and write-backs at every step, with min(distinct pages held,
   pool) buffers allocated and [storage.pager.frame_bytes] that many
   pages above its value before the open, back to it after close. *)

type pager_op = Read of int | Write of int | Nested of int * int | Alloc

let frame_bytes () =
  match Crimson_obs.Metrics.find "storage.pager.frame_bytes" with
  | Some (Crimson_obs.Metrics.Gauge g) ->
      int_of_float (Crimson_obs.Metrics.Gauge.value g)
  | Some _ | None -> Alcotest.fail "storage.pager.frame_bytes is not a gauge"

(* The pool's replacement rule: a free frame while any is left, else
   the least recently used unpinned clean page, else the least recently
   used unpinned page, written back first. [lru] is most recent first. *)
type pool_model = {
  cap : int;
  mutable lru : (int * bool ref) list;  (* page, dirty *)
  held : (int, unit) Hashtbl.t;  (* distinct pages ever held *)
}

(* One page access: returns (hits, misses, evictions, write-backs). *)
let model_access m ~pinned page ~dirty =
  match List.assoc_opt page m.lru with
  | Some d ->
      m.lru <- (page, d) :: List.remove_assoc page m.lru;
      if dirty then d := true;
      (1, 0, 0, 0)
  | None ->
      let evictions, writes =
        if List.length m.lru < m.cap then (0, 0)
        else
          let candidates =
            List.filter (fun (p, _) -> not (List.mem p pinned)) (List.rev m.lru)
          in
          let victim, d =
            match List.find_opt (fun (_, d) -> not !d) candidates with
            | Some v -> v
            | None -> List.hd candidates
          in
          m.lru <- List.remove_assoc victim m.lru;
          (1, if !d then 1 else 0)
      in
      m.lru <- (page, ref dirty) :: m.lru;
      Hashtbl.replace m.held page ();
      (0, 1, evictions, writes)

let pager_lru_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun i -> Read i) nat);
          (2, map (fun i -> Write i) nat);
          (1, map2 (fun i j -> Nested (i, j)) nat nat);
          (1, return Alloc);
        ])
  in
  let print_op = function
    | Read i -> Printf.sprintf "Read %d" i
    | Write i -> Printf.sprintf "Write %d" i
    | Nested (i, j) -> Printf.sprintf "Nested (%d, %d)" i j
    | Alloc -> "Alloc"
  in
  let case =
    QCheck.make
      ~print:(fun (pool, pages, ops) ->
        Printf.sprintf "pool %d, file %d pages, ops [%s]" pool pages
          (String.concat "; " (List.map print_op ops)))
      ~shrink:(fun (pool, pages, ops) yield ->
        QCheck.Shrink.list ops (fun ops -> yield (pool, pages, ops)))
      QCheck.Gen.(
        int_range 8 32 >>= fun pool ->
        int_range 1 (3 * pool) >>= fun pages ->
        list_size (int_range 1 200) op_gen >|= fun ops -> (pool, pages, ops))
  in
  QCheck.Test.make ~name:"pager matches an LRU model" ~count:60 case
    (fun (pool, pages, ops) ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "t.pages" in
          let init = Pager.create_file path in
          for i = 0 to pages - 1 do
            let id = Pager.allocate init in
            Pager.with_page_mut init id (fun b -> Crimson_util.Codec.set_u32 b 0 (i + 1))
          done;
          Pager.close init;
          let content = Hashtbl.create 64 in
          for i = 0 to pages - 1 do
            Hashtbl.replace content i (i + 1)
          done;
          let g0 = frame_bytes () in
          let p = Pager.create_file ~pool_size:pool path in
          let m = { cap = pool; lru = []; held = Hashtbl.create 64 } in
          let stamp = ref 1000 in
          let step op =
            let n = Pager.page_count p in
            let expect = ref (0, 0, 0, 0, 0) in
            let add (h, mi, e, w) =
              let h0, m0, e0, r0, w0 = !expect in
              expect := (h0 + h, m0 + mi, e0 + e, r0 + mi, w0 + w)
            in
            let read_checked ~pinned page =
              add (model_access m ~pinned page ~dirty:false);
              Pager.with_page p page (fun b ->
                  check Alcotest.int "page content" (Hashtbl.find content page)
                    (Crimson_util.Codec.get_u32 b 0))
            in
            let c0 = Cost.snapshot () in
            (match op with
            | Read i -> read_checked ~pinned:[] (i mod n)
            | Write i ->
                let page = i mod n in
                incr stamp;
                add (model_access m ~pinned:[] page ~dirty:true);
                Pager.with_page_mut p page (fun b ->
                    Crimson_util.Codec.set_u32 b 0 !stamp);
                Hashtbl.replace content page !stamp
            | Nested (i, j) ->
                let a = i mod n and b = j mod n in
                add (model_access m ~pinned:[] a ~dirty:false);
                Pager.with_page p a (fun _ -> read_checked ~pinned:[ a ] b)
            | Alloc ->
                let page = Pager.allocate p in
                check Alcotest.int "allocated id" n page;
                let _, _, e, w = model_access m ~pinned:[] page ~dirty:true in
                add (0, 0, e, w);
                Hashtbl.replace content page 0);
            let c1 = Cost.current () in
            let got =
              ( c1.pager_hits - c0.pager_hits,
                c1.pager_misses - c0.pager_misses,
                c1.pager_evictions - c0.pager_evictions,
                c1.page_reads - c0.page_reads,
                c1.page_writes - c0.page_writes )
            in
            let pp (h, mi, e, r, w) =
              Printf.sprintf "hits %d misses %d evictions %d reads %d writes %d" h mi e r w
            in
            check Alcotest.string "hits, misses, evictions, reads, writes" (pp !expect)
              (pp got);
            let frames = min (Hashtbl.length m.held) pool in
            let st = Pager.stats p in
            check Alcotest.int "frames allocated" frames st.allocated;
            check Alcotest.int "resident" (List.length m.lru) st.resident;
            check Alcotest.int "frame bytes" (g0 + (frames * Page.size)) (frame_bytes ())
          in
          List.iter step ops;
          Pager.close p;
          check Alcotest.int "closed pager holds no frames" 0 (Pager.stats p).allocated;
          check Alcotest.int "frame bytes after close" g0 (frame_bytes ());
          true))

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
    key_of_row = (fun row -> Key.text (Record.get_text row 0));
    unique = true;
  }

let dist_ix : Table.index_spec =
  {
    Table.index_name = "by_dist";
    key_of_row = (fun row -> Key.float (Record.get_float row 2));
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

(* ---------------------------- Clustered ----------------------------- *)

(* A clustered table of (tree, layer, id, payload) rows beside its
   directory, over a small pool. Payloads are long enough that a group
   spans several pages. *)
let clustered_schema : Record.schema =
  [| ("tree", Record.Int); ("layer", Record.Int); ("id", Record.Int); ("text", Record.Text) |]

let clustered_db () =
  let db = Database.open_mem ~pool_size:8 () in
  let directory =
    Database.table db ~name:"runs" ~schema:Clustered.directory_schema
      ~indexes:Clustered.directory_indexes
  in
  let table = Database.table db ~name:"rows" ~schema:clustered_schema ~indexes:[] in
  (table, directory, Clustered.create table ~directory)

let payload tree layer id = Printf.sprintf "%d/%d/%d:%s" tree layer id (String.make 90 'x')

let write_group c ~tree ~layer rows =
  Clustered.write c [ tree; layer ] ~rows ~mark:(fun id -> 10 * id) (fun id ->
      Record.[| VInt tree; VInt layer; VInt id; VText (payload tree layer id) |])

let decode_text r =
  let s = Record.Reader.text r in
  Record.Reader.finish r;
  s

let id_of_payload text = Scanf.sscanf text "%d/%d/%d:" (fun _ _ id -> id)

(* The directory rows of group [key], ascending by first id. *)
let directory_of directory key =
  let col = Record.column_index Clustered.directory_schema in
  let rows = ref [] in
  Table.scan directory (fun rid row ->
      if Record.get_blob row (col "group") = Key.cat (List.map Key.int key) then
        rows := (Record.get_int row (col "first"), (rid, row)) :: !rows);
  List.map snd (List.sort compare !rows)

let test_clustered_find_and_scan () =
  let _, _, c = clustered_db () in
  (* Three groups, the middle one spanning several pages and sharing its
     first and last pages with its neighbours. *)
  ignore (write_group c ~tree:1 ~layer:0 7);
  let g = write_group c ~tree:1 ~layer:1 300 in
  ignore (write_group c ~tree:2 ~layer:0 5);
  let reopened = Clustered.open_group c [ 1; 1 ] in
  check Alcotest.bool "several runs" true (Array.length (Clustered.runs g) > 3);
  check Alcotest.bool "the directory holds the written runs" true
    (Clustered.runs g = Clustered.runs reopened);
  Array.iter
    (fun (r : Clustered.run) -> check Alcotest.int "mark" (10 * r.first) r.mark)
    (Clustered.runs g);
  List.iter
    (fun g ->
      check Alcotest.int "size" 300 (Clustered.size g);
      for id = 299 downto 0 do
        check (Alcotest.option Alcotest.string) "find" (Some (payload 1 1 id))
          (Clustered.find g id decode_text)
      done;
      List.iter
        (fun id ->
          check Alcotest.bool "out of range" true (Clustered.find g id decode_text = None))
        [ -1; 300 ])
    [ g; reopened ];
  check Alcotest.int "an absent group has no rows" 0
    (Clustered.size (Clustered.open_group c [ 3; 0 ]));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "groups" [ [ 1; 0 ]; [ 1; 1 ]; [ 2; 0 ] ] (Clustered.groups c);
  (* A full scan pins each page once and decodes each row once. *)
  let seen = ref [] in
  let before = Cost.snapshot () in
  Clustered.scan reopened ~lo:0 ~hi:max_int (fun _ -> decode_text) (fun text ->
      seen := id_of_payload text :: !seen;
      id_of_payload text + 1);
  let after = Cost.current () in
  check (Alcotest.list Alcotest.int) "every row, in order" (List.init 300 Fun.id)
    (List.rev !seen);
  check Alcotest.int "one page pin per run"
    (Array.length (Clustered.runs reopened))
    (Cost.pages after - Cost.pages before);
  check Alcotest.int "one decode per row" 300 (after.rows_decoded - before.rows_decoded);
  (* A jumping scan reads only the rows it asks for. *)
  let next id = if id mod 2 = 0 then id + 37 else id + 1 in
  let rec expect id acc = if id > 250 then List.rev acc else expect (next id) (id :: acc) in
  let seen = ref [] in
  let before = Cost.snapshot () in
  Clustered.scan reopened ~lo:5 ~hi:250 (fun _ -> decode_text) (fun text ->
      let id = id_of_payload text in
      seen := id :: !seen;
      next id);
  check (Alcotest.list Alcotest.int) "jumps" (expect 5 []) (List.rev !seen);
  check Alcotest.int "no decode of a row jumped over" (List.length !seen)
    ((Cost.current ()).rows_decoded - before.rows_decoded);
  (* A seek binary-searches one run's rows, its page pinned once: ids
     ascend, so the first row whose id is not below the probe, or the
     run's end. *)
  Array.iter
    (fun (r : Clustered.run) ->
      let stop = r.first + r.rows in
      List.iter
        (fun (lo, probe) ->
          let before = Cost.snapshot () in
          let at =
            Clustered.seek reopened ~lo (fun rd ->
                Int.compare (id_of_payload (decode_text rd)) probe)
          in
          let after = Cost.current () in
          check Alcotest.int
            (Printf.sprintf "seek %d from %d" probe lo)
            (max lo (min probe stop)) at;
          check Alcotest.int "one page pin" 1 (Cost.pages after - Cost.pages before);
          check Alcotest.int "run end" stop (Clustered.run_end reopened lo);
          if after.rows_decoded - before.rows_decoded > 8 then
            Alcotest.failf "a seek in a run of %d rows decoded %d" r.rows
              (after.rows_decoded - before.rows_decoded))
        [
          (r.first, r.first - 1); (r.first, r.first); (r.first, (r.first + stop) / 2);
          (r.first, stop - 1); (r.first, stop + 5); (stop - 1, r.first);
        ])
    (Clustered.runs reopened);
  check Alcotest.int "a seek outside the group stays" 300
    (Clustered.seek reopened ~lo:300 (fun _ -> 0))

let test_clustered_key_checked () =
  let table, directory, c = clustered_db () in
  ignore (write_group c ~tree:1 ~layer:0 40);
  ignore (write_group c ~tree:1 ~layer:1 40);
  (match
     Clustered.write c [ 1; 2 ] ~rows:1 (fun _ ->
         Record.[| VInt 1; VInt 2; VInt 5; VText "" |])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a row with the wrong id was written");
  (* Shift group (1, 1)'s first run back one row: it now starts on group
     (1, 0)'s last row. Every read path refuses it. *)
  let rid_col = Record.column_index Clustered.directory_schema "rid" in
  let rid, row = List.hd (directory_of directory [ 1; 1 ]) in
  let forged = Array.copy row in
  forged.(rid_col) <- Record.VInt (Record.get_int row rid_col - 1);
  ignore (Table.update directory rid forged);
  let g = Clustered.open_group c [ 1; 1 ] in
  let corrupt what f =
    match f () with
    | exception Error.Error (Error.Corrupt_page { file; detail }) ->
        check Alcotest.string (what ^ " names the heap") (Table.heap_file table) file;
        check Alcotest.bool (what ^ ": " ^ detail) true (String.length detail > 0)
    | _ -> Alcotest.failf "%s read a row that is not the group's" what
  in
  corrupt "find" (fun () -> ignore (Clustered.find g 0 decode_text));
  corrupt "scan" (fun () -> Clustered.scan g ~lo:0 ~hi:3 (fun _ -> decode_text) (fun _ -> max_int));
  corrupt "seek" (fun () -> ignore (Clustered.seek g ~lo:0 (fun _ -> 0)));
  check Alcotest.bool "check reports it" true
    (Result.is_error (Clustered.check g ~rows:40));
  (* What the consumer raises is its own, not a corrupt row. *)
  let g0 = Clustered.open_group c [ 1; 0 ] in
  match Clustered.scan g0 ~lo:0 ~hi:3 (fun _ -> decode_text) (fun _ -> invalid_arg "mine") with
  | exception Invalid_argument msg -> check Alcotest.string "the consumer's own" "mine" msg
  | _ -> Alcotest.fail "the consumer's exception was lost"

let test_clustered_delete_and_check () =
  let table, directory, c = clustered_db () in
  ignore (write_group c ~tree:1 ~layer:0 40);
  let g = write_group c ~tree:1 ~layer:1 120 in
  ignore (write_group c ~tree:2 ~layer:0 40);
  check Alcotest.bool "a written group checks" true (Clustered.check g ~rows:120 = Ok ());
  check Alcotest.bool "a count it does not cover" true
    (Result.is_error (Clustered.check g ~rows:121));
  (* A directory with a gap. *)
  let rid, _ = List.nth (directory_of directory [ 1; 1 ]) 1 in
  let row = Option.get (Table.get directory rid) in
  ignore (Table.delete directory rid);
  (match Clustered.check (Clustered.open_group c [ 1; 1 ]) ~rows:120 with
  | Error msg -> check Alcotest.bool msg true true
  | Ok () -> Alcotest.fail "a gap in the runs passed the check");
  ignore (Table.insert directory row);
  check Alcotest.bool "mended" true
    (Clustered.check (Clustered.open_group c [ 1; 1 ]) ~rows:120 = Ok ());
  (* Delete: its rows and its runs go; an old handle reads nothing. *)
  Clustered.delete c [ 1; 1 ];
  check Alcotest.bool "rows gone" true (Clustered.find g 0 decode_text = None);
  let seen = ref 0 in
  Clustered.scan g ~lo:0 ~hi:max_int (fun _ -> decode_text) (fun _ ->
      incr seen;
      max_int);
  check Alcotest.int "a scan of a deleted group reads nothing" 0 !seen;
  check Alcotest.int "no runs" 0 (Clustered.size (Clustered.open_group c [ 1; 1 ]));
  check Alcotest.int "other rows kept" 80 (Table.row_count table);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "groups" [ [ 1; 0 ]; [ 2; 0 ] ] (Clustered.groups c);
  List.iter
    (fun key ->
      check Alcotest.bool "others still check" true
        (Clustered.check (Clustered.open_group c key) ~rows:40 = Ok ()))
    [ [ 1; 0 ]; [ 2; 0 ] ]

let test_database_version () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      check Alcotest.int "a new database records none" 0 (Database.version db);
      Database.set_version db 3;
      ignore (Database.table db ~name:"t" ~schema:clustered_schema ~indexes:[]);
      Database.close db;
      let db = Database.open_dir ~mode:Database.Read_only dir in
      check Alcotest.int "kept across a reopen" 3 (Database.version db);
      (match Database.set_version db 4 with
      | exception Error.Error (Error.Read_only _) -> ()
      | () -> Alcotest.fail "a read-only database recorded a version");
      Database.close db)

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
          QCheck_alcotest.to_alcotest pager_lru_prop;
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
          Alcotest.test_case "scan_range and last_entry" `Quick
            test_table_scan_range_and_last_entry;
        ] );
      ( "clustered",
        [
          Alcotest.test_case "find and scan" `Quick test_clustered_find_and_scan;
          Alcotest.test_case "keys checked" `Quick test_clustered_key_checked;
          Alcotest.test_case "delete and check" `Quick test_clustered_delete_and_check;
        ] );
      ( "database",
        [
          Alcotest.test_case "format version" `Quick test_database_version;
          Alcotest.test_case "persistence and reopen" `Quick
            test_database_persistence_and_reopen;
          Alcotest.test_case "schema mismatch" `Quick test_database_schema_mismatch;
          Alcotest.test_case "index rebuild" `Quick test_database_index_rebuild;
          Alcotest.test_case "drop table" `Quick test_database_drop_table;
          Alcotest.test_case "pager stats" `Quick test_database_pager_stats;
          Alcotest.test_case "small pool integration" `Slow test_integration_small_pool;
        ] );
    ]
