(* The decoded-node access layer: every Stored_tree accessor resolves
   through one of these per-tree caches instead of reading storage per
   field.

   A view is the full node row decoded once into an immutable struct.
   Rows of [nodes], [layers] and [subtrees] are clustered tables (see
   [Crimson_storage.Clustered]): located by id through their run
   directory and decoded straight off their pinned heap page. Views live
   in a bounded LRU, and a miss reads its own row and nothing else: what
   is left on the cached path is layered LCA climbs, whose working set
   is their label path, not neighbouring ids, so rows read on
   speculation would go unused and evict the views the next LCA needs.
   Layer rows and subtree roots are cached too, one directory read per
   miss, so the Layered engine's whole working set is cached.

   Invalidation: repositories are read-mostly. Loads create new tree ids
   (never touching existing rows), and [Loader.delete_tree] orphans every
   open handle of that tree: its rows become tombstones, which read as
   missing. [Table.vacuum] must never run on a clustered table: it
   renumbers rids, and the directory would then point at other rows.
   Every decoded row is checked against the key it was read for, so that
   shows up as [Error.Corrupt_page], never as a wrong answer.
   [invalidate] exists for belt-and-braces callers; it keeps the
   directory groups and the leaf maps, which describe where rows lie and
   which rows are leaves, and no load or delete changes either under a
   handle. *)

module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Clustered = Crimson_storage.Clustered
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

(* Hits, misses and evictions are charged to the cost record, which
   backs the core.node_cache counters. Cache-miss fetches are the
   storage-level work a trace wants to see: each one is a span when a
   trace is collecting, a plain histogram sample otherwise. *)
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
  }

  let create capacity =
    let capacity = max 1 capacity in
    {
      capacity;
      tbl = Hashtbl.create (min capacity 1024);
      head = None;
      tail = None;
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
          Crimson_obs.Cost.cache_eviction ()
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

(* ---------------------------- Leaf maps ---------------------------- *)
(* Each run of the tree's [nodes] group has a leaf map in memory, one
   bit per row, set where the row is a leaf ([subtree_end = node]). The
   directory keeps each run's first [leaf_lo] as its mark. A leaf's
   ordinal is the number of leaves before it in preorder, so the leaf
   with ordinal [o] is in the last run whose mark is at most [o], at the
   [(o - mark)]th set bit of that run's map. The maps are not stored:
   the loader builds them from the [subtree_end] array it wrote, and a
   handle that read its runs from the directory fills a run's map the
   first time an ordinal lands in that run. *)

let empty_map rows = Bytes.make ((rows + 7) / 8) '\000'

let set_bit map i =
  Bytes.set_uint8 map (i lsr 3) (Bytes.get_uint8 map (i lsr 3) lor (1 lsl (i land 7)))

(* Set bits of each byte value. *)
let byte_ones =
  String.init 256 (fun b ->
      let rec ones b = if b = 0 then 0 else (b land 1) + ones (b lsr 1) in
      Char.chr (ones b))

(* The index of the [k]th set bit of [map], counting from 0, or -1. *)
let select map k =
  let rec in_byte b i k =
    if b land 1 = 0 then in_byte (b lsr 1) (i + 1) k
    else if k = 0 then i
    else in_byte (b lsr 1) (i + 1) (k - 1)
  in
  let rec go byte k =
    if byte >= Bytes.length map then -1
    else
      let b = Bytes.get_uint8 map byte in
      let ones = Char.code byte_ones.[b] in
      if k < ones then in_byte b (byte * 8) k else go (byte + 1) (k - ones)
  in
  if k < 0 then -1 else go 0 k

(* The last run whose mark is at most [x], or -1. *)
let run_by_mark (runs : Clustered.run array) x =
  let rec go lo hi = (* runs.(lo).mark <= x < runs.(hi + 1).mark *)
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if runs.(mid).mark <= x then go mid hi else go lo (mid - 1)
  in
  if Array.length runs = 0 || runs.(0).mark > x then -1
  else go 0 (Array.length runs - 1)

(* ------------------------------ Cache ------------------------------ *)

type cache = {
  repo : Repo.t;
  tree : int;
  nodes : int; (* ids are [0, nodes) *)
  mutable node_group : Clustered.group option; (* read on first use *)
  mutable leaf_maps : Bytes.t array; (* per run; [Bytes.empty] until filled *)
  groups : (string * int, Clustered.group) Hashtbl.t; (* (table, layer) *)
  views : (int, t) Lru.t;
  layer_views : (int * int, layer_view) Lru.t; (* (layer, node) *)
  sub_roots : (int * int, int) Lru.t; (* (layer, sub) *)
}

let default_capacity = 4096

let create_cache ?(capacity = default_capacity) repo ~tree ~nodes =
  let capacity = max 1 capacity in
  {
    repo;
    tree;
    nodes;
    node_group = None;
    leaf_maps = [||];
    groups = Hashtbl.create 8;
    views = Lru.create capacity;
    layer_views = Lru.create (max 8 (capacity / 4));
    sub_roots = Lru.create (max 8 (capacity / 4));
  }

let capacity c = c.views.Lru.capacity

let node_group c =
  match c.node_group with
  | Some g -> g
  | None ->
      let g = Clustered.open_group (Repo.clustered c.repo Repo.nodes) [ c.tree ] in
      c.node_group <- Some g;
      c.leaf_maps <- Array.make (Array.length (Clustered.runs g)) Bytes.empty;
      g

let group c table ~layer =
  let key = (Table.name (table c.repo), layer) in
  match Hashtbl.find_opt c.groups key with
  | Some g -> g
  | None ->
      let g = Clustered.open_group (Repo.clustered c.repo table) [ c.tree; layer ] in
      Hashtbl.replace c.groups key g;
      g

(* Columns in [Schema.Nodes] order after (tree, node). *)
let decode_view node r =
  let module R = Record.Reader in
  let parent = R.int r in
  let edge_index = R.int r in
  let name = R.text r in
  let blen = R.float r in
  let root_dist = R.float r in
  let sub = R.int r in
  let local_depth = R.int r in
  let leaf_lo = R.int r in
  let leaf_hi = R.int r in
  let subtree_end = R.int r in
  R.finish r;
  {
    node;
    parent;
    edge_index;
    name;
    blen;
    root_dist;
    sub;
    local_depth;
    leaf_lo;
    leaf_hi;
    subtree_end;
  }

(* A miss reads its own row: one directory search, one page pin, one
   checked decode and one LRU admission. *)
let fetch_node c n =
  Span.record h_fetch
    ~attrs:(fun () ->
      [
        ("table", Json.Str "nodes");
        ("tree", Json.Num (float_of_int c.tree));
        ("node", Json.Num (float_of_int n));
      ])
    (fun () ->
      let v = Clustered.find (node_group c) n (decode_view n) in
      Option.iter (Lru.add c.views n) v;
      v)

(* Node resolution is the query path's unit of progress — every lca
   climb, clade expansion or projection touches it — so it is where the
   request deadline is polled. The check is counter-gated (a handful of
   instructions when no deadline is armed). *)
let find c n =
  Crimson_obs.Deadline.check ();
  if n < 0 || n >= c.nodes then None
  else
    match Lru.find c.views n with
    | Some v ->
        Crimson_obs.Cost.cache_hit ();
        Some v
    | None ->
        Crimson_obs.Cost.cache_miss ();
        fetch_node c n

let node c n = match find c n with Some v -> v | None -> raise (Unknown_node n)

let prime c group ~subtree_end view_of =
  c.node_group <- Some group;
  c.leaf_maps <-
    Array.map
      (fun (run : Clustered.run) ->
        let map = empty_map run.rows in
        for i = 0 to run.rows - 1 do
          if subtree_end.(run.first + i) = run.first + i then set_bit map i
        done;
        map)
      (Clustered.runs group);
  for n = 0 to min c.nodes c.views.Lru.capacity - 1 do
    Lru.add c.views n (view_of n)
  done

(* Run [r]'s leaf map, filled on first use: one page pin, each of the
   run's rows checked and decoded off it, none admitted. [None] when a
   row is gone (a deleted tree). *)
let leaf_map c g r =
  let map = c.leaf_maps.(r) in
  if Bytes.length map > 0 then Some map
  else
    let run = (Clustered.runs g).(r) in
    let map = empty_map run.rows and seen = ref 0 in
    Clustered.scan g ~lo:run.first ~hi:(run.first + run.rows - 1) decode_view (fun v ->
        incr seen;
        if v.subtree_end = v.node then set_bit map (v.node - run.first);
        v.node + 1);
    if !seen < run.rows then None
    else begin
      c.leaf_maps.(r) <- map;
      Some map
    end

let leaf_by_ordinal c o =
  Crimson_obs.Deadline.check ();
  let g = node_group c in
  let runs = Clustered.runs g in
  let r = if o < 0 then -1 else run_by_mark runs o in
  if r < 0 then None
  else
    match leaf_map c g r with
    | None -> None
    | Some map -> (
        let i = select map (o - runs.(r).mark) in
        if i < 0 then None
        else
          let leaf = runs.(r).first + i in
          match find c leaf with
          | Some v when v.subtree_end = leaf && v.leaf_lo = o -> Some leaf
          | Some _ | None -> None)

(* A sequential run — a frontier, a clade, a whole tree — reads each row
   once, so admitting it to the LRU would only evict the working set of
   the random lookups around it. The scan decodes rows off their pages
   instead, pinning each page once, and a jump past the next id costs
   nothing: the directory locates any id. *)
let h_scan = Metrics.histogram "core.node_scan.ms"

let scan c ~lo ~hi f =
  let rows = ref 0 and jumps = ref 0 in
  Span.record h_scan
    ~attrs:(fun () ->
      [
        ("tree", Json.Num (float_of_int c.tree));
        ("lo", Json.Num (float_of_int lo));
        ("hi", Json.Num (float_of_int hi));
      ])
    (fun () ->
      Clustered.scan (node_group c) ~lo ~hi:(min hi (c.nodes - 1)) decode_view (fun v ->
          Crimson_obs.Deadline.check ();
          incr rows;
          let next = f v in
          if next > v.node + 1 then incr jumps;
          next);
      Span.attr "rows" (Json.Num (float_of_int !rows));
      Span.attr "jumps" (Json.Num (float_of_int !jumps)))

(* Layer rows and subtree roots: one cached directory group per
   (table, layer), then one checked read per miss. *)
let layer_view c ~layer n =
  Crimson_obs.Deadline.check ();
  match Lru.find c.layer_views (layer, n) with
  | Some v ->
      Crimson_obs.Cost.cache_hit ();
      v
  | None -> (
      Crimson_obs.Cost.cache_miss ();
      let decode r =
        let module R = Record.Reader in
        let l_parent = R.int r in
        let l_edge_index = R.int r in
        let l_sub = R.int r in
        let l_local_depth = R.int r in
        R.finish r;
        { l_parent; l_edge_index; l_sub; l_local_depth }
      in
      let row =
        Span.record h_fetch
          ~attrs:(fun () ->
            [
              ("table", Json.Str "layers");
              ("tree", Json.Num (float_of_int c.tree));
              ("layer", Json.Num (float_of_int layer));
              ("node", Json.Num (float_of_int n));
            ])
          (fun () -> Clustered.find (group c Repo.layers ~layer) n decode)
      in
      match row with
      | Some v ->
          Lru.add c.layer_views (layer, n) v;
          v
      | None -> raise (Unknown_node n))

let sub_root c ~layer s =
  Crimson_obs.Deadline.check ();
  match Lru.find c.sub_roots (layer, s) with
  | Some root ->
      Crimson_obs.Cost.cache_hit ();
      root
  | None -> (
      Crimson_obs.Cost.cache_miss ();
      let decode r =
        let root = Record.Reader.int r in
        Record.Reader.finish r;
        root
      in
      match Clustered.find (group c Repo.subtrees ~layer) s decode with
      | Some root ->
          Lru.add c.sub_roots (layer, s) root;
          root
      | None -> raise (Unknown_node s))

let invalidate c =
  Lru.clear c.views;
  Lru.clear c.layer_views;
  Lru.clear c.sub_roots

let resident c =
  Lru.length c.views + Lru.length c.layer_views + Lru.length c.sub_roots
