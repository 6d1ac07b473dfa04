(* The decoded-node access layer: every Stored_tree accessor resolves
   through one of these per-tree caches instead of reading storage per
   field.

   A view is the full node row decoded once into an immutable struct.
   Rows are located by id through the tree's run directory (below) and
   decoded straight off their pinned heap page. Views live in a bounded
   LRU, and a miss reads its own row and nothing else: what is left on
   the cached path is layered LCA climbs, whose working set is their
   label path, not neighbouring ids, so rows read on speculation would
   go unused and evict the views the next LCA needs. Layer rows and
   subtree roots are cached too, one index lookup per miss, so the
   Layered engine's whole working set is cached.

   Invalidation: repositories are read-mostly. Loads create new tree ids
   (never touching existing rows), and [Loader.delete_tree] orphans every
   open handle of that tree: its rows become tombstones, which read as
   missing. [Table.vacuum] must never run on [nodes]: it renumbers rids,
   and the run directory would then point at other rows. Every decoded
   row is checked against the (tree, node) it was read for, so that
   shows up as [Error.Corrupt_page], never as a wrong answer.
   [invalidate] exists for belt-and-braces callers; it keeps the runs
   and their leaf maps, which describe where rows lie and which rows
   are leaves, and no load or delete changes either under a handle. *)

module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Heap = Crimson_storage.Heap
module Error = Crimson_storage.Error
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

(* ---------------------------- Node runs ---------------------------- *)
(* The loader writes a tree's rows for ids 0 .. n-1 in order, so each
   heap page holds consecutive ids in consecutive slots. A run starts
   wherever the page changes or the slot is not the previous slot + 1
   (a tree's first run may share its page with the previous tree's
   last rows; tombstones never split a live tree's runs because slots
   are never reused). One directory entry per run — its first id, that
   row's rid and its [leaf_lo] — is about one entry per heap page, and
   locating id [i] is a binary search plus [rid + (i - first)]: slots
   are the low bits of a rid.

   Each run also has a leaf map in memory, one bit per row, set where
   the row is a leaf ([subtree_end = node]). A leaf's ordinal is the
   number of leaves before it in preorder, so the leaf with ordinal [o]
   is in the last run whose first [leaf_lo] is at most [o], at the
   [(o - leaf_lo)]th set bit of that run's map. The maps are not stored:
   the loader builds them from the [subtree_end] array it wrote, and a
   handle that read its runs from [node_runs] fills a run's map the
   first time an ordinal lands in that run. *)

type runs = {
  firsts : int array; (* ascending, [firsts.(0) = 0] *)
  rids : int array;
  leaf_los : int array; (* never decreasing *)
  leaf_maps : Bytes.t array; (* [Bytes.empty] until filled *)
}

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

(* The last id of the run starting at [firsts.(r)]. *)
let run_last firsts ~nodes r =
  if r + 1 < Array.length firsts then firsts.(r + 1) - 1 else nodes - 1

let runs_of_rids rids ~leaf_lo ~subtree_end =
  let n = Array.length rids in
  let starts_run i =
    i = 0
    || Heap.rid_page rids.(i) <> Heap.rid_page rids.(i - 1)
    || Heap.rid_slot rids.(i) <> Heap.rid_slot rids.(i - 1) + 1
  in
  let firsts = List.filter starts_run (List.init n Fun.id) |> Array.of_list in
  let leaf_map r =
    let first = firsts.(r) and last = run_last firsts ~nodes:n r in
    let map = empty_map (last - first + 1) in
    for v = first to last do
      if subtree_end.(v) = v then set_bit map (v - first)
    done;
    map
  in
  {
    firsts;
    rids = Array.map (fun i -> rids.(i)) firsts;
    leaf_los = Array.map (fun i -> leaf_lo.(i)) firsts;
    leaf_maps = Array.init (Array.length firsts) leaf_map;
  }

let store_runs repo ~tree runs =
  Array.iteri
    (fun r first ->
      ignore
        (Table.insert (Repo.node_runs repo)
           [|
             Record.VInt tree; Record.VInt first; Record.VInt runs.rids.(r);
             Record.VInt runs.leaf_los.(r);
           |]))
    runs.firsts

(* The tree's directory rows, ascending by first id, with their rids. *)
let run_rows repo ~tree =
  let acc = ref [] in
  Table.iter_index (Repo.node_runs repo) ~index:"by_first"
    ~prefix:(Schema.Node_runs.key_tree tree) (fun rid row ->
      acc := (rid, row) :: !acc;
      true);
  List.rev !acc

let load_runs repo ~tree =
  let rows = Array.of_list (List.map snd (run_rows repo ~tree)) in
  let col c = Array.map (fun row -> Record.get_int row c) rows in
  {
    firsts = col Schema.Node_runs.c_first;
    rids = col Schema.Node_runs.c_rid;
    leaf_los = col Schema.Node_runs.c_leaf_lo;
    leaf_maps = Array.make (Array.length rows) Bytes.empty;
  }

(* The last index [r] with [a.(r) <= x], or -1. *)
let last_le a x =
  let rec go lo hi = (* a.(lo) <= x < a.(hi + 1), answer in [lo, hi] *)
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if a.(mid) <= x then go mid hi else go lo (mid - 1)
  in
  if Array.length a = 0 || a.(0) > x then -1 else go 0 (Array.length a - 1)

(* ------------------------------ Cache ------------------------------ *)

type cache = {
  repo : Repo.t;
  tree : int;
  nodes : int; (* ids are [0, nodes) *)
  mutable runs : runs option; (* loaded on the first read that needs them *)
  mutable run_hint : int; (* the run of the last id located *)
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
    runs = None;
    run_hint = 0;
    views = Lru.create capacity;
    layer_views = Lru.create (max 8 (capacity / 4));
    sub_roots = Lru.create (max 8 (capacity / 4));
  }

let capacity c = c.views.Lru.capacity

let runs c =
  match c.runs with
  | Some runs -> runs
  | None ->
      let runs = load_runs c.repo ~tree:c.tree in
      c.runs <- Some runs;
      runs

(* The rid of id [n] (in [0, nodes)), or -1 when the directory has no
   run for it. Sequential reads stay in the hinted run: no search. *)
let rid_of c n =
  let runs = runs c in
  let count = Array.length runs.firsts in
  let r = c.run_hint in
  let r =
    if r < count && runs.firsts.(r) <= n && (r + 1 = count || n < runs.firsts.(r + 1))
    then r
    else begin
      let r = last_le runs.firsts n in
      if r >= 0 then c.run_hint <- r;
      r
    end
  in
  if r < 0 then -1 else runs.rids.(r) + (n - runs.firsts.(r))

let corrupt c fmt =
  Printf.ksprintf
    (fun detail ->
      let file =
        match Repo.dir c.repo with
        | Some dir -> Filename.concat dir "nodes.heap"
        | None -> "nodes.heap"
      in
      Error.fail (Error.Corrupt_page { file; detail }))
    fmt

(* Decode the row at [rid], held in [page] at [off], checking it is the
   row of ([c.tree], [n]). [decode] reads the fields after the two key
   columns. *)
let check_row c n rid decode page off len =
  let r = Record.Reader.create page ~off ~len in
  let tree = Record.Reader.int r in
  let node = Record.Reader.int r in
  if tree <> c.tree || node <> n then
    corrupt c "rid %s holds node %d of tree %d, not node %d of tree %d"
      (Heap.rid_to_string rid) node tree n c.tree;
  decode r

(* [f ()] reading the rows of nodes [first .. last] from [rid], with a
   short or malformed row reported as corrupt. *)
let reading c ~first ~last rid f =
  try f ()
  with Invalid_argument msg | Crimson_util.Codec.Corrupt msg | Record.Type_error msg ->
    let nodes = if first = last then string_of_int first else Printf.sprintf "%d..%d" first last in
    corrupt c "node %s of tree %d at rid %s: %s" nodes c.tree (Heap.rid_to_string rid) msg

(* Decode the row of ([c.tree], [n]) at [rid] straight off its pinned
   page. [None] for a tombstone (a deleted tree). *)
let read_row c n rid decode =
  reading c ~first:n ~last:n rid (fun () ->
      Table.with_payload (Repo.nodes c.repo) rid (check_row c n rid decode))

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

let read_view c n =
  if n < 0 || n >= c.nodes then None
  else
    let rid = rid_of c n in
    if rid < 0 then None else read_row c n rid (decode_view n)

(* A miss reads its own row: one run-directory search, one page pin,
   one checked decode and one LRU admission. *)
let fetch_node c n =
  Span.record_traced h_fetch
    ~attrs:(fun () ->
      [
        ("table", Json.Str "nodes");
        ("tree", Json.Num (float_of_int c.tree));
        ("node", Json.Num (float_of_int n));
      ])
    (fun () ->
      let v = read_view c n in
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

let prime c ~runs ~count view_of =
  c.runs <- Some runs;
  for n = 0 to min count c.views.Lru.capacity - 1 do
    Lru.add c.views n (view_of n)
  done

(* Run [r]'s leaf map, filled on first use: one page pin, each of the
   run's rows checked and decoded off it, none admitted. [None] when a
   row is gone (a deleted tree). *)
let leaf_map c runs r =
  let map = runs.leaf_maps.(r) in
  if Bytes.length map > 0 then Some map
  else
    let first = runs.firsts.(r) and last = run_last runs.firsts ~nodes:c.nodes r in
    let rid = runs.rids.(r) and rows = last - first + 1 in
    let map = empty_map rows in
    let live =
      reading c ~first ~last rid (fun () ->
          Table.with_payloads (Repo.nodes c.repo) rid ~count:rows (fun i ->
              let n = first + i in
              check_row c n (rid + i) (fun r ->
                  if (decode_view n r).subtree_end = n then set_bit map i)))
    in
    if live < rows then None
    else begin
      runs.leaf_maps.(r) <- map;
      Some map
    end

let leaf_by_ordinal c o =
  Crimson_obs.Deadline.check ();
  let runs = runs c in
  let r = if o < 0 then -1 else last_le runs.leaf_los o in
  if r < 0 then None
  else
    match leaf_map c runs r with
    | None -> None
    | Some map -> (
        let i = select map (o - runs.leaf_los.(r)) in
        if i < 0 then None
        else
          let leaf = runs.firsts.(r) + i in
          match find c leaf with
          | Some v when v.subtree_end = leaf && v.leaf_lo = o -> Some leaf
          | Some _ | None -> None)

(* A sequential run — a frontier, a clade, a whole tree — reads each row
   once, so admitting it to the LRU would only evict the working set of
   the random lookups around it. The scan decodes rows off their pages
   instead, and a jump past the next id costs nothing: the runs locate
   any id. *)
let h_scan = Metrics.histogram "core.node_scan.ms"

let scan c ~lo ~hi f =
  let rows = ref 0 and jumps = ref 0 in
  Span.record_traced h_scan
    ~attrs:(fun () ->
      [
        ("tree", Json.Num (float_of_int c.tree));
        ("lo", Json.Num (float_of_int lo));
        ("hi", Json.Num (float_of_int hi));
      ])
    (fun () ->
      let hi = min hi (c.nodes - 1) in
      let rec go n =
        if n <= hi then begin
          Crimson_obs.Deadline.check ();
          match read_view c n with
          | None -> ()
          | Some v ->
              incr rows;
              let next = f v in
              if next > n + 1 then incr jumps;
              go (max next (n + 1))
        end
      in
      go (max lo 0);
      Span.attr "rows" (Json.Num (float_of_int !rows));
      Span.attr "jumps" (Json.Num (float_of_int !jumps)))

(* Every node row of the tree, through its runs, then the runs. Each row
   is checked to be the tree's before it goes. *)
let delete_rows repo ~tree ~nodes =
  let c = create_cache repo ~tree ~nodes ~capacity:1 in
  let table = Repo.nodes repo in
  for n = 0 to nodes - 1 do
    let rid = rid_of c n in
    if rid >= 0 && read_row c n rid ignore <> None then ignore (Table.delete table rid)
  done;
  List.iter
    (fun (rid, _) -> ignore (Table.delete (Repo.node_runs repo) rid))
    (run_rows repo ~tree)

let layer_view c ~layer n =
  Crimson_obs.Deadline.check ();
  match Lru.find c.layer_views (layer, n) with
  | Some v ->
      Crimson_obs.Cost.cache_hit ();
      v
  | None -> (
      Crimson_obs.Cost.cache_miss ();
      let row =
        Span.record_traced h_fetch
          ~attrs:(fun () ->
            [
              ("table", Json.Str "layers");
              ("tree", Json.Num (float_of_int c.tree));
              ("layer", Json.Num (float_of_int layer));
              ("node", Json.Num (float_of_int n));
            ])
          (fun () ->
            Table.find (Repo.layers c.repo) ~index:"by_node"
              ~key:(Schema.Layers.key_node ~tree:c.tree ~layer n))
      in
      match row with
      | Some (_, row) ->
          let v = layer_of_row row in
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

let resident c =
  Lru.length c.views + Lru.length c.layer_views + Lru.length c.sub_roots
