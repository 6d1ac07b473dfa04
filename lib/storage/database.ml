module Codec = Crimson_util.Codec

exception Schema_mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Schema_mismatch s)) fmt

(* Same registry instances the pager feeds — directory-level recovery
   reports through the one storage.recovery.* namespace. *)
let m_rec_discarded = Crimson_obs.Metrics.counter "storage.recovery.discarded"
let h_recovery = Crimson_obs.Metrics.histogram "storage.recovery.ms"

type catalog_entry = {
  table_name : string;
  schema : Record.schema;
  index_meta : (string * bool) list; (* name, unique *)
}

type mode =
  | Read_write
  | Read_only

type t = {
  dir : string option; (* None = in-memory *)
  io : Io.t;
  pool_size : int;
  durable : bool;
  mode : mode;
  mutable catalog : catalog_entry list;
  (* Table handle plus (relative file name, pager) for each of its
     files — the names tag WAL records at checkpoint time. *)
  open_tables : (string, Table.t * (string * Pager.t) list) Hashtbl.t;
  (* The database-level WAL, opened lazily on the first durable
     checkpoint (and eagerly by recovery). *)
  mutable db_wal : Wal.t option;
  mutable closed : bool;
}

(* --------------------------- Catalog file -------------------------- *)

let catalog_path dir = Filename.concat dir "catalog.crim"
let db_wal_name = "crimson.wal"

let encode_catalog entries =
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w "CRIMCATL";
  Codec.Writer.varint w (List.length entries);
  List.iter
    (fun e ->
      Codec.Writer.string w e.table_name;
      Codec.Writer.string w (Record.encode_schema e.schema);
      Codec.Writer.varint w (List.length e.index_meta);
      List.iter
        (fun (name, unique) ->
          Codec.Writer.string w name;
          Codec.Writer.u8 w (if unique then 1 else 0))
        e.index_meta)
    entries;
  Codec.Writer.contents w

let decode_catalog payload =
  let r = Codec.Reader.create payload in
  if Codec.Reader.bytes r 8 <> "CRIMCATL" then
    raise (Codec.Corrupt "catalog: bad magic");
  let n = Codec.Reader.varint r in
  (* Explicit accumulation: decoding must proceed left to right. *)
  let entries = ref [] in
  for _ = 1 to n do
    let table_name = Codec.Reader.string r in
    let schema = Record.decode_schema (Codec.Reader.string r) in
    let k = Codec.Reader.varint r in
    let index_meta = ref [] in
    for _ = 1 to k do
      let name = Codec.Reader.string r in
      let unique = Codec.Reader.u8 r = 1 in
      index_meta := (name, unique) :: !index_meta
    done;
    entries := { table_name; schema; index_meta = List.rev !index_meta } :: !entries
  done;
  List.rev !entries

let load_catalog io dir =
  match Io.read_file io (catalog_path dir) with
  | None -> []
  | Some payload -> decode_catalog payload

let save_catalog t =
  match t.dir with
  | None -> ()
  | Some dir -> Io.write_file_atomic t.io (catalog_path dir) (encode_catalog t.catalog)

(* ------------------------- Directory recovery ----------------------- *)

(* Replay or discard the database-level WAL before any pager opens. The
   commit record decides: a committed batch is applied to every tagged
   file (idempotent — a crash mid-replay reruns it on the next open); a
   torn batch means the crash happened before the checkpoint committed,
   so the files already hold the previous consistent state. A torn
   record *inside* a committed batch cannot happen (the commit checksum
   covers every record), so Wal.read never returns such a state; the
   typed [Torn_wal_record] error is reserved for callers that bypass
   classification. *)
let recover_dir io dir =
  let wal_file = Filename.concat dir db_wal_name in
  if Io.file_exists io wal_file then begin
    let wal = Wal.open_path ~io wal_file in
    Fun.protect
      ~finally:(fun () -> Wal.close wal)
      (fun () ->
        Crimson_obs.Span.record_traced h_recovery (fun () ->
            (match Wal.read wal with
            | Wal.Committed entries ->
                let by_file = Hashtbl.create 8 in
                let order = ref [] in
                List.iter
                  (fun (e : Wal.entry) ->
                    (match Hashtbl.find_opt by_file e.file with
                    | Some batch -> batch := (e.page_id, e.image) :: !batch
                    | None ->
                        Hashtbl.add by_file e.file (ref [ (e.page_id, e.image) ]);
                        order := e.file :: !order);
                    ())
                  entries;
                List.iter
                  (fun file ->
                    let batch = List.rev !(Hashtbl.find by_file file) in
                    let f = Io.open_file io (Filename.concat dir file) in
                    Fun.protect
                      ~finally:(fun () -> Io.close f)
                      (fun () -> Pager.replay_batch f batch))
                  (List.rev !order)
            | Wal.Torn _ -> Crimson_obs.Metrics.Counter.incr m_rec_discarded
            | Wal.Empty -> ());
            Wal.clear wal))
  end

(* ----------------------------- Open/close -------------------------- *)

(* Read-only opens must not replay or clear the database-level WAL: a
   committed batch means the files are stale until a read-write open
   replays it, so refuse with the typed error; torn/empty logs leave
   the files authoritative and are left in place. *)
let check_wal_read_only io dir =
  let wal_file = Filename.concat dir db_wal_name in
  if Io.file_exists io wal_file then begin
    let wal = Wal.open_path ~io wal_file in
    Fun.protect
      ~finally:(fun () -> Wal.close wal)
      (fun () ->
        match Wal.read wal with
        | Wal.Committed _ ->
            Error.fail (Error.Read_only { file = wal_file; op = "WAL replay" })
        | Wal.Torn _ | Wal.Empty -> ())
  end

let open_dir ?(pool_size = 256) ?(durable = false) ?(io = Io.real)
    ?(mode = Read_write) dir =
  (match mode with
  | Read_write ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        invalid_arg (Printf.sprintf "Database.open_dir: %s is not a directory" dir)
  | Read_only ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        Error.fail (Error.Read_only { file = dir; op = "create directory" }));
  (match mode with
  | Read_write -> recover_dir io dir
  | Read_only -> check_wal_read_only io dir);
  {
    dir = Some dir;
    io;
    pool_size;
    durable = (durable && mode = Read_write);
    mode;
    catalog = load_catalog io dir;
    open_tables = Hashtbl.create 8;
    db_wal = None;
    closed = false;
  }

let open_mem ?(pool_size = 256) () =
  {
    dir = None;
    io = Io.real;
    pool_size;
    durable = false;
    mode = Read_write;
    catalog = [];
    open_tables = Hashtbl.create 8;
    db_wal = None;
    closed = false;
  }

let is_persistent t = t.dir <> None
let mode t = t.mode
let dir t = t.dir

let fail_read_only t op =
  let file = match t.dir with Some d -> d | None -> "<mem>" in
  Error.fail (Error.Read_only { file; op })

let check_open t = if t.closed then invalid_arg "Database: already closed"

let heap_file_name name = name ^ ".heap"
let index_file_name name index = Printf.sprintf "%s.%s.idx" name index

(* --------------------------- Checkpointing -------------------------- *)

let all_pagers t =
  Hashtbl.fold (fun _ (_, pagers) acc -> pagers @ acc) t.open_tables []

let get_db_wal t dir =
  match t.db_wal with
  | Some wal -> wal
  | None ->
      let wal = Wal.open_path ~io:t.io (Filename.concat dir db_wal_name) in
      t.db_wal <- Some wal;
      wal

(* One atomic checkpoint covering every file of the database: collect
   the dirty pages of every pager into a single WAL batch tagged with
   file names, fsync it (the commit point), apply each pager's pages to
   its own file, then clear the WAL. A crash anywhere leaves either the
   previous checkpoint (WAL torn or cleared) or this one (WAL
   committed, replayed by [recover_dir] on the next open) — never a mix
   of files from different checkpoints. *)
let checkpoint t =
  check_open t;
  match t.dir with
  | None -> ()
  | Some dir ->
      let pagers = all_pagers t in
      let entries =
        List.concat_map
          (fun (file, pager) ->
            List.map
              (fun (page_id, image) -> { Wal.file; page_id; image })
              (Pager.dirty_batch pager))
          pagers
      in
      if entries <> [] then begin
        let wal = get_db_wal t dir in
        Wal.append_entries wal entries;
        List.iter (fun (_, pager) -> Pager.apply_checkpoint pager) pagers;
        Wal.clear wal
      end

let make_pager t file =
  match t.dir with
  | Some dir ->
      (* Durability is provided at the database level (one WAL for the
         whole directory), so the per-file WAL stays off; committed
         per-file WALs left by older versions still replay inside
         [Pager.create_file]. *)
      let pager =
        Pager.create_file ~pool_size:t.pool_size ~io:t.io
          ~read_only:(t.mode = Read_only)
          (Filename.concat dir file)
      in
      if t.durable then Pager.set_dirty_pressure pager (fun () -> checkpoint t);
      pager
  | None -> Pager.create_mem ~pool_size:t.pool_size ()

let same_schema (a : Record.schema) (b : Record.schema) =
  Array.length a = Array.length b
  && Array.for_all2 (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && t1 = t2) a b

let table t ~name ~schema ~indexes =
  check_open t;
  match Hashtbl.find_opt t.open_tables name with
  | Some (tbl, _) ->
      if not (same_schema (Table.schema tbl) schema) then
        mismatch "table %s already open with a different schema" name;
      tbl
  | None ->
      let requested_meta =
        List.map (fun (s : Table.index_spec) -> (s.index_name, s.unique)) indexes
      in
      let entry = List.find_opt (fun e -> String.equal e.table_name name) t.catalog in
      (match entry with
      | Some e ->
          if not (same_schema e.schema schema) then
            mismatch "table %s: stored schema differs" name;
          if e.index_meta <> requested_meta then
            mismatch "table %s: stored index set differs" name
      | None ->
          if t.mode = Read_only then
            fail_read_only t (Printf.sprintf "create table %s" name);
          t.catalog <-
            t.catalog @ [ { table_name = name; schema; index_meta = requested_meta } ];
          save_catalog t);
      let index_missing =
        match t.dir with
        | None -> []
        | Some dir ->
            List.filter
              (fun (s : Table.index_spec) ->
                entry <> None
                && not (Sys.file_exists (Filename.concat dir (index_file_name name s.index_name))))
              indexes
      in
      if t.mode = Read_only && index_missing <> [] then
        fail_read_only t
          (Printf.sprintf "rebuild index %s.%s" name
             (match index_missing with s :: _ -> s.Table.index_name | [] -> "?"));
      (* Track pagers opened so far: failing on the third index file must
         not leak the descriptors of the heap and earlier indexes. *)
      let opened = ref [] in
      let open_pager file =
        let pager = make_pager t file in
        opened := pager :: !opened;
        pager
      in
      let heap_pager, heap, index_pairs =
        try
          let heap_pager = open_pager (heap_file_name name) in
          let heap = Heap.create heap_pager in
          let index_pairs =
            List.map
              (fun (s : Table.index_spec) ->
                let file = index_file_name name s.index_name in
                let pager = open_pager file in
                ((s, Btree.create pager), (file, pager)))
              indexes
          in
          (heap_pager, heap, index_pairs)
        with e ->
          List.iter Pager.abandon !opened;
          raise e
      in
      let tbl =
        Table.create ~name ~schema ~heap ~indexes:(List.map fst index_pairs)
      in
      (* Rebuild any index whose file vanished under an existing table. *)
      List.iter
        (fun (s : Table.index_spec) -> Table.rebuild_index tbl ~index:s.index_name)
        index_missing;
      let pagers = (heap_file_name name, heap_pager) :: List.map snd index_pairs in
      Hashtbl.replace t.open_tables name (tbl, pagers);
      tbl

let table_names t = List.map (fun e -> e.table_name) t.catalog

let stored_layout t name =
  List.find_map
    (fun e ->
      if String.equal e.table_name name then Some (e.schema, List.map fst e.index_meta)
      else None)
    t.catalog

let drop_table t name =
  check_open t;
  if t.mode = Read_only then fail_read_only t (Printf.sprintf "drop table %s" name);
  if not (List.exists (fun e -> String.equal e.table_name name) t.catalog) then
    raise Not_found;
  let entry = List.find (fun e -> String.equal e.table_name name) t.catalog in
  (* Settle outstanding dirty state first so the WAL never references
     files about to disappear. *)
  if t.durable then checkpoint t;
  (match Hashtbl.find_opt t.open_tables name with
  | Some (_, pagers) ->
      List.iter (fun (_, p) -> Pager.close p) pagers;
      Hashtbl.remove t.open_tables name
  | None -> ());
  (match t.dir with
  | None -> ()
  | Some dir ->
      let remove file = Io.remove t.io (Filename.concat dir file) in
      remove (heap_file_name name);
      List.iter (fun (index, _) -> remove (index_file_name name index)) entry.index_meta);
  t.catalog <- List.filter (fun e -> not (String.equal e.table_name name)) t.catalog;
  save_catalog t

let flush t =
  check_open t;
  if t.durable && t.dir <> None then checkpoint t
  else Hashtbl.iter (fun _ (tbl, _) -> Table.flush tbl) t.open_tables

let close t =
  if not t.closed then begin
    if t.durable && t.dir <> None then checkpoint t;
    Hashtbl.iter (fun _ (_, pagers) -> List.iter (fun (_, p) -> Pager.close p) pagers)
      t.open_tables;
    Option.iter Wal.close t.db_wal;
    Hashtbl.reset t.open_tables;
    t.closed <- true
  end

let abandon t =
  if not t.closed then begin
    Hashtbl.iter
      (fun _ (_, pagers) -> List.iter (fun (_, p) -> Pager.abandon p) pagers)
      t.open_tables;
    Option.iter Wal.close t.db_wal;
    Hashtbl.reset t.open_tables;
    t.closed <- true
  end
