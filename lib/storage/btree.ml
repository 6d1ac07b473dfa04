module Codec = Crimson_util.Codec

let magic = "CRIMBTRE"
let max_key = 512

(* Registry telemetry: logical node traffic and operation mix, across
   every tree in the process (see Crimson_obs.Metrics). Finds and node
   decodes are charged to the cost record (storage.btree.find,
   storage.btree.node_decode). *)
let m_node_reads = Crimson_obs.Metrics.counter "storage.btree.node_read"
let m_node_writes = Crimson_obs.Metrics.counter "storage.btree.node_write"
let m_inserts = Crimson_obs.Metrics.counter "storage.btree.insert"
let m_deletes = Crimson_obs.Metrics.counter "storage.btree.delete"
let m_splits = Crimson_obs.Metrics.counter "storage.btree.split"

type t = {
  pager : Pager.t;
  mutable root : int;
  (* Small cache of decoded nodes, keyed by page id. It holds the hot
     upper levels (the root is touched by every operation) and the
     rightmost path during ascending bulk inserts, cutting most
     decode/encode work. Bounded: cleared wholesale when full so leaves
     — the bulk of the tree — still stream through the buffer pool. *)
  node_cache : (int, node) Hashtbl.t;
  cache_limit : int;
}

and node =
  | Leaf of {
      mutable next : int; (* page id of the right sibling; 0 = none *)
      mutable entries : (string * int) array; (* sorted (key, value) *)
    }
  | Internal of {
      mutable first : int; (* child for keys < entries.(0) key *)
      mutable entries : (string * int) array; (* sorted (separator, child) *)
    }

(* ------------------------- Node (de)coding ------------------------- *)

let encode_node node =
  let w = Codec.Writer.create ~capacity:256 () in
  (match node with
  | Leaf { next; entries } ->
      Codec.Writer.u8 w 0;
      Codec.Writer.u32 w next;
      Codec.Writer.varint w (Array.length entries);
      Array.iter
        (fun (k, v) ->
          Codec.Writer.string w k;
          Codec.Writer.varint w v)
        entries
  | Internal { first; entries } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.u32 w first;
      Codec.Writer.varint w (Array.length entries);
      Array.iter
        (fun (k, c) ->
          Codec.Writer.string w k;
          Codec.Writer.u32 w c)
        entries);
  Codec.Writer.contents w

let corrupt pager detail =
  Error.fail
    (Error.Corrupt_page
       { file = Option.value (Pager.file_path pager) ~default:"<mem>"; detail })

let decode_node ~pager page =
  (* Zero-copy view: the page buffer is only read while pinned and the
     reader never outlives this call, so the unsafe cast is sound. *)
  let r = Codec.Reader.create (Bytes.unsafe_to_string page) in
  match Codec.Reader.u8 r with
  | 0 ->
      let next = Codec.Reader.u32 r in
      let n = Codec.Reader.varint r in
      (* Explicit loop: the reader's cursor forces left-to-right order. *)
      let entries = Array.make n ("", 0) in
      for i = 0 to n - 1 do
        let k = Codec.Reader.string r in
        let v = Codec.Reader.varint r in
        entries.(i) <- (k, v)
      done;
      Leaf { next; entries }
  | 1 ->
      let first = Codec.Reader.u32 r in
      let n = Codec.Reader.varint r in
      let entries = Array.make n ("", 0) in
      for i = 0 to n - 1 do
        let k = Codec.Reader.string r in
        let c = Codec.Reader.u32 r in
        entries.(i) <- (k, c)
      done;
      Internal { first; entries }
  | k -> corrupt pager (Printf.sprintf "btree: unknown node kind %d" k)

let read_node t page_id =
  Crimson_obs.Metrics.Counter.incr m_node_reads;
  match Hashtbl.find_opt t.node_cache page_id with
  | Some node -> node
  | None ->
      Crimson_obs.Cost.node_decoded ~bytes:Page.size;
      let node = Pager.with_page t.pager page_id (decode_node ~pager:t.pager) in
      if Hashtbl.length t.node_cache >= t.cache_limit then
        Hashtbl.reset t.node_cache;
      Hashtbl.replace t.node_cache page_id node;
      node

let write_encoded t page_id s node =
  Crimson_obs.Metrics.Counter.incr m_node_writes;
  Pager.with_page_mut t.pager page_id (fun page ->
      Bytes.blit_string s 0 page 0 (String.length s);
      (* Zero the remainder so stale bytes never confuse a decode. *)
      Bytes.fill page (String.length s) (Page.size - String.length s) '\x00');
  if Hashtbl.length t.node_cache >= t.cache_limit then Hashtbl.reset t.node_cache;
  Hashtbl.replace t.node_cache page_id node

let write_node t page_id node =
  let s = encode_node node in
  if String.length s > Page.size then
    (* Callers split before writing; reaching here is a logic error. *)
    failwith "Btree.write_node: node overflows page";
  write_encoded t page_id s node

(* Encode once: [Ok encoded] when it fits, [Error ()] when it overflows. *)
let try_write t page_id node =
  let s = encode_node node in
  if String.length s <= Page.size then begin
    write_encoded t page_id s node;
    true
  end
  else false

let write_meta t =
  Pager.with_page_mut t.pager 0 (fun page ->
      Bytes.blit_string magic 0 page 0 (String.length magic);
      Codec.set_u32 page 8 t.root)

let create pager =
  if Pager.page_count pager = 0 then begin
    let meta = Pager.allocate pager in
    assert (meta = 0);
    let root = Pager.allocate pager in
    let t = { pager; root; node_cache = Hashtbl.create 64; cache_limit = 64 } in
    write_node t root (Leaf { next = 0; entries = [||] });
    write_meta t;
    t
  end
  else begin
    let root =
      Pager.with_page pager 0 (fun page ->
          if Bytes.sub_string page 0 (String.length magic) <> magic then
            Error.fail
              (Error.Corrupt_page
                 {
                   file = Option.value (Pager.file_path pager) ~default:"<mem>";
                   detail = "btree: bad magic";
                 });
          Codec.get_u32 page 8)
    in
    { pager; root; node_cache = Hashtbl.create 64; cache_limit = 64 }
  end

(* ----------------------------- Search ------------------------------ *)

(* Index of the child to descend into for [key]: the child of the largest
   separator <= key, or [first] when key < all separators. Returns -1 for
   [first]. *)
let child_slot entries key =
  let lo = ref 0 and hi = ref (Array.length entries - 1) in
  let ans = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst entries.(mid)) key <= 0 then begin
      ans := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !ans

let child_of first entries slot = if slot < 0 then first else snd entries.(slot)

(* Position of [key] in a sorted entry array: [Found i] or [Insert i]. *)
type pos =
  | Found of int
  | Insert of int

let search entries key =
  let lo = ref 0 and hi = ref (Array.length entries - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare key (fst entries.(mid)) in
    if c = 0 then found := Some mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  match !found with Some i -> Found i | None -> Insert !lo

let find t ~key =
  Crimson_obs.Cost.btree_find ();
  let rec go page_id =
    match read_node t page_id with
    | Leaf { entries; _ } -> (
        match search entries key with
        | Found i -> Some (snd entries.(i))
        | Insert _ -> None)
    | Internal { first; entries } ->
        go (child_of first entries (child_slot entries key))
  in
  go t.root

(* ----------------------------- Insert ------------------------------ *)

let check_key key op =
  if String.length key = 0 then invalid_arg (Printf.sprintf "Btree.%s: empty key" op);
  if String.length key > max_key then
    invalid_arg
      (Printf.sprintf "Btree.%s: key of %d bytes exceeds max %d" op (String.length key)
         max_key)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Returns [Some (separator, right_page)] when [page_id] split. *)
let rec insert_rec t page_id key value =
  match read_node t page_id with
  | Leaf leaf -> (
      (match search leaf.entries key with
      | Found i -> leaf.entries.(i) <- (key, value)
      | Insert i -> leaf.entries <- array_insert leaf.entries i (key, value));
      let node = Leaf { next = leaf.next; entries = leaf.entries } in
      if try_write t page_id node then None
      else begin
        Crimson_obs.Metrics.Counter.incr m_splits;
        let n = Array.length leaf.entries in
        let mid = n / 2 in
        let right_id = Pager.allocate t.pager in
        let right_entries = Array.sub leaf.entries mid (n - mid) in
        let left_entries = Array.sub leaf.entries 0 mid in
        write_node t right_id (Leaf { next = leaf.next; entries = right_entries });
        write_node t page_id (Leaf { next = right_id; entries = left_entries });
        Some (fst right_entries.(0), right_id)
      end)
  | Internal node -> (
      let slot = child_slot node.entries key in
      let child = child_of node.first node.entries slot in
      match insert_rec t child key value with
      | None -> None
      | Some (sep, right) ->
          let at = slot + 1 in
          node.entries <- array_insert node.entries at (sep, right);
          let whole = Internal { first = node.first; entries = node.entries } in
          if try_write t page_id whole then None
          else begin
            Crimson_obs.Metrics.Counter.incr m_splits;
            let n = Array.length node.entries in
            let mid = n / 2 in
            let promoted, right_first = node.entries.(mid) in
            let left_entries = Array.sub node.entries 0 mid in
            let right_entries = Array.sub node.entries (mid + 1) (n - mid - 1) in
            let right_id = Pager.allocate t.pager in
            write_node t right_id (Internal { first = right_first; entries = right_entries });
            write_node t page_id (Internal { first = node.first; entries = left_entries });
            Some (promoted, right_id)
          end)

let insert t ~key value =
  check_key key "insert";
  if value < 0 then invalid_arg "Btree.insert: negative value";
  Crimson_obs.Metrics.Counter.incr m_inserts;
  match insert_rec t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let new_root = Pager.allocate t.pager in
      write_node t new_root (Internal { first = t.root; entries = [| (sep, right) |] });
      t.root <- new_root;
      write_meta t

(* ----------------------------- Delete ------------------------------ *)

let delete t ~key =
  check_key key "delete";
  Crimson_obs.Metrics.Counter.incr m_deletes;
  let rec go page_id =
    match read_node t page_id with
    | Leaf leaf -> (
        match search leaf.entries key with
        | Found i ->
            write_node t page_id
              (Leaf { next = leaf.next; entries = array_remove leaf.entries i });
            true
        | Insert _ -> false)
    | Internal { first; entries } -> go (child_of first entries (child_slot entries key))
  in
  go t.root

(* ---------------------------- Iteration ---------------------------- *)

let iter_from t ~key f =
  (* Descend to the leaf that would contain [key]. *)
  let rec descend page_id =
    match read_node t page_id with
    | Leaf _ -> page_id
    | Internal { first; entries } ->
        descend (child_of first entries (child_slot entries key))
  in
  let rec walk page_id ~start =
    if page_id = 0 then ()
    else
      match read_node t page_id with
      | Leaf { next; entries } ->
          let i0 =
            if start then
              match search entries key with Found i -> i | Insert i -> i
            else 0
          in
          let continue = ref true in
          let i = ref i0 in
          while !continue && !i < Array.length entries do
            let k, v = entries.(!i) in
            continue := f k v;
            incr i
          done;
          if !continue then walk next ~start:false
      | Internal _ -> corrupt t.pager "btree: leaf chain hit an internal node"
  in
  walk (descend t.root) ~start:true

let scan_range t ~lo ~hi f =
  iter_from t ~key:lo (fun k v -> if String.compare k hi < 0 then f k v else false)

let iter_prefix t ~prefix f =
  if String.length prefix = 0 then invalid_arg "Btree.iter_prefix: empty prefix";
  let is_prefix p s =
    String.length p <= String.length s && String.sub s 0 (String.length p) = p
  in
  iter_from t ~key:prefix (fun k v -> if is_prefix prefix k then f k v else false)

let leftmost_leaf t =
  let rec go page_id =
    match read_node t page_id with
    | Leaf _ -> page_id
    | Internal { first; _ } -> go first
  in
  go t.root

let iter_all t f =
  let rec walk page_id =
    if page_id = 0 then ()
    else
      match read_node t page_id with
      | Leaf { next; entries } ->
          let continue = ref true in
          let i = ref 0 in
          while !continue && !i < Array.length entries do
            let k, v = entries.(!i) in
            continue := f k v;
            incr i
          done;
          if !continue then walk next
      | Internal _ -> corrupt t.pager "btree: leaf chain hit an internal node"
  in
  walk (leftmost_leaf t)

let max_binding t =
  let rec descend page_id =
    match read_node t page_id with
    | Leaf { entries; _ } ->
        let n = Array.length entries in
        if n > 0 then Some entries.(n - 1) else None
    | Internal { first; entries } ->
        let n = Array.length entries in
        descend (if n = 0 then first else snd entries.(n - 1))
  in
  match descend t.root with
  | Some _ as result -> result
  | None ->
      (* The rightmost leaf can be empty (deletes never rebalance); the
         chain is forward-only, so fall back to a full in-order walk. *)
      let last = ref None in
      iter_all t (fun k v ->
          last := Some (k, v);
          true);
      !last

let entry_count t =
  let n = ref 0 in
  iter_all t (fun _ _ ->
      incr n;
      true);
  !n

let height t =
  let rec go page_id acc =
    match read_node t page_id with
    | Leaf _ -> acc
    | Internal { first; _ } -> go first (acc + 1)
  in
  go t.root 1

(* ---------------------------- Validation --------------------------- *)

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let check_sorted entries where =
    Array.iteri
      (fun i (k, _) ->
        if i > 0 && String.compare (fst entries.(i - 1)) k >= 0 then
          raise (Bad (Printf.sprintf "%s: keys not strictly sorted" where)))
      entries
  in
  (* Walk the tree, checking key bounds; collect leaves in order. *)
  let leaves_in_order = ref [] in
  let rec walk page_id ~lo ~hi ~depth ~leaf_depth =
    let within k =
      (match lo with Some l -> String.compare l k <= 0 | None -> true)
      && match hi with Some h -> String.compare k h < 0 | None -> true
    in
    match read_node t page_id with
    | Leaf { entries; _ } ->
        check_sorted entries (Printf.sprintf "leaf %d" page_id);
        Array.iter
          (fun (k, _) ->
            if not (within k) then
              raise (Bad (Printf.sprintf "leaf %d: key out of bounds" page_id)))
          entries;
        (match !leaf_depth with
        | None -> leaf_depth := Some depth
        | Some d ->
            if d <> depth then raise (Bad "leaves at differing depths"));
        leaves_in_order := page_id :: !leaves_in_order
    | Internal { first; entries } ->
        check_sorted entries (Printf.sprintf "internal %d" page_id);
        Array.iter
          (fun (k, _) ->
            if not (within k) then
              raise (Bad (Printf.sprintf "internal %d: separator out of bounds" page_id)))
          entries;
        let n = Array.length entries in
        walk first ~lo ~hi:(if n > 0 then Some (fst entries.(0)) else hi) ~depth:(depth + 1)
          ~leaf_depth;
        Array.iteri
          (fun i (k, c) ->
            let hi' = if i + 1 < n then Some (fst entries.(i + 1)) else hi in
            walk c ~lo:(Some k) ~hi:hi' ~depth:(depth + 1) ~leaf_depth)
          entries
  in
  match
    let leaf_depth = ref None in
    walk t.root ~lo:None ~hi:None ~depth:0 ~leaf_depth;
    (* Leaf chain must visit exactly the leaves, in order. *)
    let expected = List.rev !leaves_in_order in
    let chain = ref [] in
    let rec follow page_id =
      if page_id <> 0 then
        match read_node t page_id with
        | Leaf { next; _ } ->
            chain := page_id :: !chain;
            follow next
        | Internal _ -> raise (Bad "chain hits internal node")
    in
    follow (leftmost_leaf t);
    if List.rev !chain <> expected then raise (Bad "leaf chain disagrees with tree order")
  with
  | () -> Ok ()
  | exception Bad msg -> fail "%s" msg

let clear t =
  Hashtbl.reset t.node_cache;
  write_node t t.root (Leaf { next = 0; entries = [||] });
  (* Collapse to a single-level tree rooted where the old root was; old
     interior pages are abandoned in the file. *)
  ()

let pager t = t.pager
let flush t = Pager.flush t.pager
