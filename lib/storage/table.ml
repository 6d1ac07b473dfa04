exception Constraint_violation of string

type index_spec = {
  index_name : string;
  key_of_row : Record.value array -> string;
  unique : bool;
}

type t = {
  name : string;
  schema : Record.schema;
  heap : Heap.t;
  indexes : (index_spec * Btree.t) list;
}

let create ~name ~schema ~heap ~indexes = { name; schema; heap; indexes }
let name t = t.name
let schema t = t.schema

(* Non-unique indexes append the rid, keeping every B+tree key distinct
   while preserving range order. *)
let stored_key spec key rid =
  if spec.unique then key else Key.cat [ key; Key.int rid ]

let index_row spec btree row rid =
  Btree.insert btree ~key:(stored_key spec (spec.key_of_row row) rid) rid

let find_index t ~index =
  match List.find_opt (fun (spec, _) -> String.equal spec.index_name index) t.indexes with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Table: no index named %s" index)

let insert t row =
  Record.check t.schema row;
  (* Check unique constraints before touching storage. *)
  List.iter
    (fun (spec, btree) ->
      if spec.unique && Btree.find btree ~key:(spec.key_of_row row) <> None then
        raise
          (Constraint_violation
             (Printf.sprintf "table %s: duplicate key in unique index %s" t.name
                spec.index_name)))
    t.indexes;
  let rid = Heap.insert t.heap (Record.encode t.schema row) in
  List.iter (fun (spec, btree) -> index_row spec btree row rid) t.indexes;
  rid

let get t rid =
  match Heap.get t.heap rid with
  | Some payload ->
      Crimson_obs.Cost.row_decoded ~bytes:(String.length payload);
      Some (Record.decode t.schema payload)
  | None -> None

let with_payload t rid f =
  Heap.with_record t.heap rid (fun page off len ->
      Crimson_obs.Cost.row_decoded ~bytes:len;
      f page off len)

let with_payloads t rid ~count f =
  Heap.with_records t.heap rid ~count (fun i page off len ->
      Crimson_obs.Cost.row_decoded ~bytes:len;
      f i page off len)

let with_slots t rid f =
  Heap.with_slots t.heap rid (fun read ->
      f (fun i g ->
          read i (fun page off len ->
              Crimson_obs.Cost.row_decoded ~bytes:len;
              g page off len)))

let heap_file t =
  match Pager.file_path (Heap.pager t.heap) with
  | Some path -> path
  | None -> t.name ^ ".heap"

let delete t rid =
  match get t rid with
  | None -> false
  | Some row ->
      List.iter
        (fun (spec, btree) ->
          ignore (Btree.delete btree ~key:(stored_key spec (spec.key_of_row row) rid)))
        t.indexes;
      Heap.delete t.heap rid;
      true

let update t rid row =
  if not (delete t rid) then invalid_arg "Table.update: rid not live";
  insert t row

let scan t f = Heap.iter t.heap (fun rid payload -> f rid (Record.decode t.schema payload))

let find t ~index ~key =
  let spec, btree = find_index t ~index in
  if not spec.unique then
    invalid_arg (Printf.sprintf "Table.find: index %s is not unique" index);
  match Btree.find btree ~key with
  | None -> None
  | Some rid -> (
      match get t rid with
      | Some row -> Some (rid, row)
      | None -> None)

let iter_index t ~index ~prefix f =
  let _, btree = find_index t ~index in
  Btree.iter_prefix btree ~prefix (fun _key rid ->
      match get t rid with
      | Some row -> f rid row
      | None -> true)

let scan_range t ~index ~lo ~hi f =
  let _, btree = find_index t ~index in
  Btree.scan_range btree ~lo ~hi (fun _key rid ->
      match get t rid with
      | Some row -> f rid row
      | None -> true)

let last_entry t ~index =
  let _, btree = find_index t ~index in
  match Btree.max_binding btree with
  | None -> None
  | Some (_, rid) -> ( match get t rid with Some row -> Some (rid, row) | None -> None)

let row_count t = Heap.record_count t.heap
let index_names t = List.map (fun (spec, _) -> spec.index_name) t.indexes

let rebuild_index t ~index =
  let spec, btree = find_index t ~index in
  (* Drop all entries, then repopulate from the heap. *)
  let keys = ref [] in
  Btree.iter_all btree (fun k _ ->
      keys := k :: !keys;
      true);
  List.iter (fun k -> ignore (Btree.delete btree ~key:k)) !keys;
  scan t (fun rid row -> index_row spec btree row rid)

let vacuum t =
  (* Snapshot live payloads, reformat the heap, re-insert, and rebuild
     the indexes from the fresh rids. *)
  let live = ref [] in
  Heap.iter t.heap (fun _ payload -> live := payload :: !live);
  let live = List.rev !live in
  Heap.reset t.heap;
  List.iter (fun (_, btree) -> Btree.clear btree) t.indexes;
  let count = ref 0 in
  List.iter
    (fun payload ->
      incr count;
      let rid = Heap.insert t.heap payload in
      let row = Record.decode t.schema payload in
      List.iter (fun (spec, btree) -> index_row spec btree row rid) t.indexes)
    live;
  !count

let flush t =
  Heap.flush t.heap;
  List.iter (fun (_, btree) -> Btree.flush btree) t.indexes
