(* The decoded-node access layer: every Stored_tree accessor resolves
   through one of these per-tree caches instead of hitting the B+tree
   per field read.

   A view is the full node row decoded once into an immutable struct.
   Views live in a bounded LRU; a miss opens a Table cursor, and when
   the miss pattern looks sequential (node ids are dense preorder, so
   both downward sweeps — ids ascending — and upward climbs — parents
   just below — walk the id space in short steps) it pulls a run of
   adjacent rows in that single index descent. Isolated misses fetch one
   row. Layer rows and subtree roots get the same treatment so the
   Layered engine's whole working set is cached.

   Invalidation: repositories are read-mostly. Loads create new tree
   ids (never touching existing rows), [Table.vacuum] changes rids but
   not row contents, and [Loader.delete_tree] orphans every open handle
   of that tree regardless of caching — so cached views can only go
   stale if the caller keeps using a handle across a delete, which was
   already undefined. [invalidate] exists for belt-and-braces callers. *)

module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Json = Crimson_obs.Json

exception Unknown_node of int

type t = {
  node : int;
  parent : int;
  edge_index : int;
  name : string; (* "" = unnamed *)
  blen : float;
  root_dist : float;
  sub : int;
  local_depth : int;
  leaf_lo : int;
  leaf_hi : int;
  subtree_end : int;
}

type layer_view = {
  l_parent : int;
  l_edge_index : int;
  l_sub : int;
  l_local_depth : int;
}

let of_row row =
  {
    node = Record.get_int row Schema.Nodes.c_node;
    parent = Record.get_int row Schema.Nodes.c_parent;
    edge_index = Record.get_int row Schema.Nodes.c_edge_index;
    name = Record.get_text row Schema.Nodes.c_name;
    blen = Record.get_float row Schema.Nodes.c_blen;
    root_dist = Record.get_float row Schema.Nodes.c_root_dist;
    sub = Record.get_int row Schema.Nodes.c_sub;
    local_depth = Record.get_int row Schema.Nodes.c_local_depth;
    leaf_lo = Record.get_int row Schema.Nodes.c_leaf_lo;
    leaf_hi = Record.get_int row Schema.Nodes.c_leaf_hi;
    subtree_end = Record.get_int row Schema.Nodes.c_subtree_end;
  }

let layer_of_row row =
  {
    l_parent = Record.get_int row Schema.Layers.c_parent;
    l_edge_index = Record.get_int row Schema.Layers.c_edge_index;
    l_sub = Record.get_int row Schema.Layers.c_sub;
    l_local_depth = Record.get_int row Schema.Layers.c_local_depth;
  }

(* Registry telemetry, shared by every cache in the process (the same
   convention as the pager and btree counters). *)
let m_hits = Metrics.counter "core.node_cache.hit"
let m_misses = Metrics.counter "core.node_cache.miss"
let m_evictions = Metrics.counter "core.node_cache.eviction"
let h_prefetch = Metrics.histogram "core.node_cache.prefetch_batch"

(* Cache-miss fetches are the storage-level work a trace wants to see:
   each one is a span when a trace is collecting, a plain histogram
   sample otherwise. *)
let h_fetch = Metrics.histogram "core.node_cache.fetch_ms"

(* Bounded polymorphic LRU: hash table plus an intrusive doubly-linked
   recency list (head = most recent, tail = next victim). *)
module Lru = struct
  type ('k, 'v) entry = {
    key : 'k;
    value : 'v;
    mutable prev : ('k, 'v) entry option;
    mutable next : ('k, 'v) entry option;
  }

  type ('k, 'v) t = {
    capacity : int;
    tbl : ('k, ('k, 'v) entry) Hashtbl.t;
    mutable head : ('k, 'v) entry option;
    mutable tail : ('k, 'v) entry option;
    mutable evictions : int;
  }

  let create capacity =
    let capacity = max 1 capacity in
    {
      capacity;
      tbl = Hashtbl.create (min capacity 1024);
      head = None;
      tail = None;
      evictions = 0;
    }

  let unlink t e =
    (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
    (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
    e.prev <- None;
    e.next <- None

  let push_front t e =
    e.next <- t.head;
    (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
    t.head <- Some e

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> None
    | Some e ->
        (match t.head with
        | Some h when h == e -> ()
        | _ ->
            unlink t e;
            push_front t e);
        Some e.value

  let add t k v =
    (match Hashtbl.find_opt t.tbl k with
    | Some e ->
        unlink t e;
        Hashtbl.remove t.tbl k
    | None -> ());
    if Hashtbl.length t.tbl >= t.capacity then (
      match t.tail with
      | Some victim ->
          unlink t victim;
          Hashtbl.remove t.tbl victim.key;
          t.evictions <- t.evictions + 1;
          Metrics.Counter.incr m_evictions
      | None -> ());
    let e = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.tbl k e;
    push_front t e

  let clear t =
    Hashtbl.reset t.tbl;
    t.head <- None;
    t.tail <- None

  let length t = Hashtbl.length t.tbl
end

type cache = {
  repo : Repo.t;
  tree : int;
  prefetch : int;
  views : (int, t) Lru.t;
  layer_views : (int * int, layer_view) Lru.t; (* (layer, node) *)
  sub_roots : (int * int, int) Lru.t; (* (layer, sub) *)
  mutable hits : int;
  mutable misses : int;
  (* Last missed key per table, for sequential-run detection: batching
     only pays when consecutive misses land near each other. *)
  mutable last_node_miss : int;
  mutable last_layer_miss : int * int;
}

let default_capacity = 4096
let default_prefetch = 32

let create_cache ?(capacity = default_capacity) ?(prefetch = default_prefetch)
    repo ~tree =
  let capacity = max 1 capacity in
  let prefetch = max 1 (min prefetch capacity) in
  {
    repo;
    tree;
    prefetch;
    views = Lru.create capacity;
    layer_views = Lru.create (max 8 (capacity / 4));
    sub_roots = Lru.create (max 8 (capacity / 4));
    hits = 0;
    misses = 0;
    last_node_miss = min_int / 2;
    last_layer_miss = (min_int, min_int / 2);
  }

let hit c =
  c.hits <- c.hits + 1;
  Metrics.Counter.incr m_hits;
  Crimson_obs.Profile.cache_hit ()

let miss c =
  c.misses <- c.misses + 1;
  Metrics.Counter.incr m_misses;
  Crimson_obs.Profile.cache_miss ()

(* Adaptive batching: a miss near the previous miss means a sweep or a
   climb is under way (node ids are dense preorder, so both walk the id
   space in short steps), and one index descent fills a [prefetch]-row
   window in the walk's direction. An isolated miss — random access —
   fetches just its own row; batching there reads rows that are evicted
   unused and costs more pages than it saves. *)
let batch_window c n ~last =
  if abs (n - last) > c.prefetch then (n, 1)
  else if n < last then (max 0 (n - c.prefetch + 1), c.prefetch) (* rootward climb *)
  else (n, c.prefetch) (* forward sweep *)

let prefetch_nodes c n =
  let first, count = batch_window c n ~last:c.last_node_miss in
  c.last_node_miss <- n;
  let fetched = ref 0 in
  Span.record_traced h_fetch
    ~attrs:(fun () ->
      [
        ("table", Json.Str "nodes");
        ("tree", Json.Num (float_of_int c.tree));
        ("node", Json.Num (float_of_int n));
      ])
    (fun () ->
      let cur =
        Table.cursor (Repo.nodes c.repo) ~index:"by_node"
          ~prefix:(Key.int c.tree)
          ~start:(Schema.Nodes.key_node ~tree:c.tree first)
      in
      (try
         while !fetched < count do
           match Table.Cursor.next cur with
           | None -> raise Exit
           | Some (_, row) ->
               let v = of_row row in
               Lru.add c.views v.node v;
               incr fetched
         done
       with Exit -> ());
      Span.attr "batch" (Json.Num (float_of_int !fetched)));
  Metrics.Histogram.observe h_prefetch (float_of_int !fetched)

(* Node resolution is the query path's unit of progress — every lca
   climb, clade expansion or projection touches it — so it is where the
   request deadline is polled. The check is counter-gated (a handful of
   instructions when no deadline is armed). *)
let find c n =
  Crimson_obs.Deadline.check ();
  if n < 0 then None
  else
    match Lru.find c.views n with
    | Some v ->
        hit c;
        Some v
    | None -> (
        miss c;
        prefetch_nodes c n;
        match Lru.find c.views n with
        | Some _ as result -> result
        | None -> (
            (* Sparse ids (not produced by the loader) or a window that
               fell short: one point lookup settles existence. *)
            match
              Table.find (Repo.nodes c.repo) ~index:"by_node"
                ~key:(Schema.Nodes.key_node ~tree:c.tree n)
            with
            | Some (_, row) ->
                let v = of_row row in
                Lru.add c.views n v;
                Some v
            | None -> None))

let node c n = match find c n with Some v -> v | None -> raise (Unknown_node n)

let prime c ~count view_of =
  for n = 0 to min count c.views.Lru.capacity - 1 do
    Lru.add c.views n (view_of n)
  done

(* A sequential run — a frontier, a clade, a whole tree — reads each row
   once, so admitting it to the LRU would only evict the working set of
   the random lookups around it (E3's warm Yule rows ran 2.5x slower
   when a skip-scan went through 32-row prefetch windows). The scan
   streams one [by_node] cursor instead, and a jump past the next id
   re-seeks it: one index descent in place of a read per skipped row. *)
let h_scan = Metrics.histogram "core.node_scan.ms"

let scan c ~lo ~hi f =
  let open_at n =
    Table.cursor (Repo.nodes c.repo) ~index:"by_node" ~prefix:(Key.int c.tree)
      ~start:(Schema.Nodes.key_node ~tree:c.tree n)
  in
  let rows = ref 0 and seeks = ref 0 in
  Span.record_traced h_scan
    ~attrs:(fun () ->
      [
        ("tree", Json.Num (float_of_int c.tree));
        ("lo", Json.Num (float_of_int lo));
        ("hi", Json.Num (float_of_int hi));
      ])
    (fun () ->
      let cur = ref (open_at lo) in
      let rec go () =
        Crimson_obs.Deadline.check ();
        match Table.Cursor.next !cur with
        | None -> ()
        | Some (_, row) ->
            let v = of_row row in
            if v.node <= hi then begin
              incr rows;
              let next = f v in
              if next <= hi then begin
                if next > v.node + 1 then begin
                  incr seeks;
                  cur := open_at next
                end;
                go ()
              end
            end
      in
      go ();
      Span.attr "rows" (Json.Num (float_of_int !rows));
      Span.attr "seeks" (Json.Num (float_of_int !seeks)))

let prefetch_layer c ~layer n =
  let last_layer, last_n = c.last_layer_miss in
  let first, count =
    if layer <> last_layer then (n, 1) else batch_window c n ~last:last_n
  in
  c.last_layer_miss <- (layer, n);
  let fetched = ref 0 in
  Span.record_traced h_fetch
    ~attrs:(fun () ->
      [
        ("table", Json.Str "layers");
        ("tree", Json.Num (float_of_int c.tree));
        ("layer", Json.Num (float_of_int layer));
        ("node", Json.Num (float_of_int n));
      ])
    (fun () ->
      let cur =
        Table.cursor (Repo.layers c.repo) ~index:"by_node"
          ~prefix:(Key.cat [ Key.int c.tree; Key.int layer ])
          ~start:(Schema.Layers.key_node ~tree:c.tree ~layer first)
      in
      (try
         while !fetched < count do
           match Table.Cursor.next cur with
           | None -> raise Exit
           | Some (_, row) ->
               Lru.add c.layer_views
                 (layer, Record.get_int row Schema.Layers.c_node)
                 (layer_of_row row);
               incr fetched
         done
       with Exit -> ());
      Span.attr "batch" (Json.Num (float_of_int !fetched)));
  Metrics.Histogram.observe h_prefetch (float_of_int !fetched)

let layer_view c ~layer n =
  Crimson_obs.Deadline.check ();
  match Lru.find c.layer_views (layer, n) with
  | Some v ->
      hit c;
      v
  | None -> (
      miss c;
      prefetch_layer c ~layer n;
      match Lru.find c.layer_views (layer, n) with
      | Some v -> v
      | None -> (
          match
            Table.find (Repo.layers c.repo) ~index:"by_node"
              ~key:(Schema.Layers.key_node ~tree:c.tree ~layer n)
          with
          | Some (_, row) ->
              let v = layer_of_row row in
              Lru.add c.layer_views (layer, n) v;
              v
          | None -> raise (Unknown_node n)))

let sub_root c ~layer s =
  Crimson_obs.Deadline.check ();
  match Lru.find c.sub_roots (layer, s) with
  | Some root ->
      hit c;
      root
  | None -> (
      miss c;
      match
        Table.find (Repo.subtrees c.repo) ~index:"by_sub"
          ~key:(Schema.Subtrees.key_sub ~tree:c.tree ~layer s)
      with
      | Some (_, row) ->
          let root = Record.get_int row Schema.Subtrees.c_root in
          Lru.add c.sub_roots (layer, s) root;
          root
      | None -> raise (Unknown_node s))

let invalidate c =
  Lru.clear c.views;
  Lru.clear c.layer_views;
  Lru.clear c.sub_roots

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
}

let stats (c : cache) =
  {
    hits = c.hits;
    misses = c.misses;
    evictions =
      c.views.Lru.evictions + c.layer_views.Lru.evictions
      + c.sub_roots.Lru.evictions;
    resident =
      Lru.length c.views + Lru.length c.layer_views + Lru.length c.sub_roots;
  }
