type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable pager_hits : int;
  mutable pager_misses : int;
  mutable pager_evictions : int;
  mutable pager_fsyncs : int;
  mutable wal_fsyncs : int;
  mutable btree_finds : int;
  mutable node_decodes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable node_views : int;
  mutable rows_decoded : int;
  mutable bytes_decoded : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable cursor_steps : int;
}

(* Every domain's record, newest first. Records are never removed: a
   worker's counts must survive its exit, as STATS reports them. *)
let all : t list Atomic.t = Atomic.make []

let rec enlist r =
  let l = Atomic.get all in
  if not (Atomic.compare_and_set all l (r :: l)) then enlist r

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          page_reads = 0;
          page_writes = 0;
          pager_hits = 0;
          pager_misses = 0;
          pager_evictions = 0;
          pager_fsyncs = 0;
          wal_fsyncs = 0;
          btree_finds = 0;
          node_decodes = 0;
          cache_hits = 0;
          cache_misses = 0;
          cache_evictions = 0;
          node_views = 0;
          rows_decoded = 0;
          bytes_decoded = 0;
          bytes_read = 0;
          bytes_written = 0;
          cursor_steps = 0;
        }
      in
      enlist r;
      r)

let current () = Domain.DLS.get key

let snapshot () =
  let r = current () in
  { r with page_reads = r.page_reads }

let pages r = r.pager_hits + r.pager_misses

let registry =
  [
    ("storage.pager.read", fun r -> r.page_reads);
    ("storage.pager.write", fun r -> r.page_writes);
    ("storage.pager.hit", fun r -> r.pager_hits);
    ("storage.pager.miss", fun r -> r.pager_misses);
    ("storage.pager.eviction", fun r -> r.pager_evictions);
    ("storage.pager.fsync", fun r -> r.pager_fsyncs);
    ("storage.wal.fsync", fun r -> r.wal_fsyncs);
    ("storage.btree.find", fun r -> r.btree_finds);
    ("storage.btree.node_decode", fun r -> r.node_decodes);
    ("core.node_cache.hit", fun r -> r.cache_hits);
    ("core.node_cache.miss", fun r -> r.cache_misses);
    ("core.node_cache.eviction", fun r -> r.cache_evictions);
  ]

let total get = List.fold_left (fun acc r -> acc + get r) 0 (Atomic.get all)

(* ----------------------------- Charging ----------------------------- *)

let page_read () = let r = current () in r.page_reads <- r.page_reads + 1
let page_write () = let r = current () in r.page_writes <- r.page_writes + 1
let pager_hit () = let r = current () in r.pager_hits <- r.pager_hits + 1
let pager_miss () = let r = current () in r.pager_misses <- r.pager_misses + 1
let pager_unmiss () = let r = current () in r.pager_misses <- r.pager_misses - 1
let pager_eviction () = let r = current () in r.pager_evictions <- r.pager_evictions + 1
let pager_fsync () = let r = current () in r.pager_fsyncs <- r.pager_fsyncs + 1
let wal_fsync () = let r = current () in r.wal_fsyncs <- r.wal_fsyncs + 1
let btree_find () = let r = current () in r.btree_finds <- r.btree_finds + 1

let node_decoded ~bytes =
  let r = current () in
  r.node_decodes <- r.node_decodes + 1;
  r.bytes_decoded <- r.bytes_decoded + bytes

let cache_hit () = let r = current () in r.cache_hits <- r.cache_hits + 1
let cache_miss () = let r = current () in r.cache_misses <- r.cache_misses + 1
let cache_eviction () = let r = current () in r.cache_evictions <- r.cache_evictions + 1
let node_view () = let r = current () in r.node_views <- r.node_views + 1

let row_decoded ~bytes =
  let r = current () in
  r.rows_decoded <- r.rows_decoded + 1;
  r.bytes_decoded <- r.bytes_decoded + bytes

let add_bytes_read n = let r = current () in r.bytes_read <- r.bytes_read + n
let add_bytes_written n = let r = current () in r.bytes_written <- r.bytes_written + n
let cursor_step () = let r = current () in r.cursor_steps <- r.cursor_steps + 1
