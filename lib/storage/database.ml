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
  mutable version : int; (* the format version the catalog records; 0 = none *)
  mutable catalog : catalog_entry list;
  (* Table handle plus (relative file name, pager) for each of its
     files — the names tag WAL records at commit time. *)
  open_tables : (string, Table.t * (string * Pager.t) list) Hashtbl.t;
  (* The database-level WAL, opened lazily on the first durable
     commit (and eagerly by recovery). *)
  mutable db_wal : Wal.t option;
  (* Pagers written back since the last checkpoint: their files hold
     committed pages that only the log makes durable. *)
  mutable unsynced : Pager.t list;
  mutable closed : bool;
}

(* --------------------------- Catalog file -------------------------- *)

let catalog_path dir = Filename.concat dir "catalog.crim"
let db_wal_name = "crimson.wal"

(* A catalog begins with its magic: "CRIMCATV" and the format version,
   or "CRIMCATL" for a catalog written before versions were recorded,
   which reads as version 0. *)
let encode_catalog ~version entries =
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w "CRIMCATV";
  Codec.Writer.varint w version;
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
  let version =
    match Codec.Reader.bytes r 8 with
    | "CRIMCATV" -> Codec.Reader.varint r
    | "CRIMCATL" -> 0
    | _ -> raise (Codec.Corrupt "catalog: bad magic")
  in
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
  (version, List.rev !entries)

let load_catalog io dir =
  match Io.read_file io (catalog_path dir) with
  | None -> (0, [])
  | Some payload -> decode_catalog payload

let save_catalog t =
  match t.dir with
  | None -> ()
  | Some dir ->
      Io.write_file_atomic t.io (catalog_path dir)
        (encode_catalog ~version:t.version t.catalog)

(* ------------------------- Directory recovery ----------------------- *)

(* Replay or discard the database-level WAL before any pager opens. The
   commit records decide: the committed batches are applied in log
   order, a later image of a page replacing an earlier one, to every
   tagged file (idempotent — a crash mid-replay reruns it on the next
   open); a torn batch means the crash happened before that commit, so
   it is dropped, and a log whose first batch is torn leaves the files
   as the last checkpoint made them. A torn record *inside* a committed
   batch cannot happen (the commit checksum covers every record), so
   Wal.read never returns such a state; the typed [Torn_wal_record]
   error is reserved for callers that bypass classification. *)
let replay io dir batches =
  let by_file = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (e : Wal.entry) ->
         let pages =
           match Hashtbl.find_opt by_file e.file with
           | Some pages -> pages
           | None ->
               let pages = Hashtbl.create 64 in
               Hashtbl.add by_file e.file pages;
               pages
         in
         Hashtbl.replace pages e.page_id e.image))
    batches;
  Hashtbl.fold (fun file pages acc -> (file, pages) :: acc) by_file []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (file, pages) ->
         (* Ascending page ids: one forward pass over the file. *)
         let batch =
           Hashtbl.fold (fun page_id image acc -> (page_id, image) :: acc) pages []
           |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
         in
         let f = Io.open_file io (Filename.concat dir file) in
         Fun.protect ~finally:(fun () -> Io.close f) (fun () -> Pager.replay_batch f batch))

let recover_dir io dir =
  let wal_file = Filename.concat dir db_wal_name in
  if Io.file_exists io wal_file then begin
    let wal = Wal.open_path ~io wal_file in
    Fun.protect
      ~finally:(fun () -> Wal.close wal)
      (fun () ->
        Crimson_obs.Span.record h_recovery (fun () ->
            (match Wal.read wal with
            | Wal.Committed batches -> replay io dir batches
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
    ?(mode = Read_write) ?(check = fun ~version:_ ~tables:_ -> ()) dir =
  (match mode with
  | Read_write ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        invalid_arg (Printf.sprintf "Database.open_dir: %s is not a directory" dir)
  | Read_only ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        Error.fail (Error.Read_only { file = dir; op = "create directory" }));
  (* The catalog is written whole ([write_file_atomic]), never through
     the log, so it reads the same before recovery as after. *)
  let version, catalog = load_catalog io dir in
  check ~version ~tables:(List.map (fun e -> e.table_name) catalog);
  (match mode with
  | Read_write -> recover_dir io dir
  | Read_only -> check_wal_read_only io dir);
  {
    dir = Some dir;
    io;
    pool_size;
    durable = (durable && mode = Read_write);
    mode;
    version;
    catalog;
    open_tables = Hashtbl.create 8;
    db_wal = None;
    unsynced = [];
    closed = false;
  }

let open_mem ?(pool_size = 256) () =
  {
    dir = None;
    io = Io.real;
    pool_size;
    durable = false;
    mode = Read_write;
    version = 0;
    catalog = [];
    open_tables = Hashtbl.create 8;
    db_wal = None;
    unsynced = [];
    closed = false;
  }

let mode t = t.mode
let dir t = t.dir

let fail_read_only t op =
  let file = match t.dir with Some d -> d | None -> "<mem>" in
  Error.fail (Error.Read_only { file; op })

let check_open t = if t.closed then invalid_arg "Database: already closed"

let heap_file_name name = name ^ ".heap"
let index_file_name name index = Printf.sprintf "%s.%s.idx" name index

(* ------------------------ Commit and checkpoint --------------------- *)

(* Past this many bytes of log a commit checkpoints: recovery replays at
   most this much plus the last commit. *)
let log_bound = 8 lsl 20

let all_pagers t =
  Hashtbl.fold (fun _ (_, pagers) acc -> pagers @ acc) t.open_tables []

let get_db_wal t dir =
  match t.db_wal with
  | Some wal -> wal
  | None ->
      let wal = Wal.open_path ~io:t.io (Filename.concat dir db_wal_name) in
      t.db_wal <- Some wal;
      wal

(* The files hold every committed page once each file written since the
   last checkpoint is fsynced; then the log has nothing left to
   redo. *)
let checkpoint t =
  check_open t;
  List.iter Pager.sync t.unsynced;
  t.unsynced <- [];
  match t.db_wal with
  | Some wal when Wal.size wal > 0 -> Wal.clear wal
  | Some _ | None -> ()

(* One atomic commit covering every file of the database: collect the
   dirty pages of every pager into a single WAL batch tagged with file
   names and append it to the log; its fsync is the commit point. Then
   write each pager's pages back to its own file, with no fsync: until
   the next checkpoint the log is what makes them durable. A crash
   anywhere leaves either the previous commit (this batch torn) or this
   one (committed, replayed by [recover_dir] on the next open) — never a
   mix of files from different commits. Without durability a commit is
   the write-back alone. *)
let commit t =
  check_open t;
  match t.dir with
  | Some dir when t.durable ->
      let dirty =
        List.filter_map
          (fun (file, pager) ->
            match Pager.dirty_batch pager with
            | [] -> None
            | pages -> Some (file, pager, pages))
          (all_pagers t)
      in
      if dirty <> [] then begin
        let wal = get_db_wal t dir in
        Wal.append_entries wal
          (List.concat_map
             (fun (file, _, pages) ->
               List.map (fun (page_id, image) -> { Wal.file; page_id; image }) pages)
             dirty);
        List.iter
          (fun (_, pager, _) ->
            if not (List.memq pager t.unsynced) then t.unsynced <- pager :: t.unsynced;
            Pager.flush pager)
          dirty;
        if Wal.size wal > log_bound then checkpoint t
      end
  | Some _ | None -> Hashtbl.iter (fun _ (tbl, _) -> Table.flush tbl) t.open_tables

let flush t =
  commit t;
  checkpoint t

let make_pager t file =
  match t.dir with
  | Some dir ->
      (* Durability is provided at the database level: one WAL for the
         whole directory, replayed by [recover_dir] before this open. *)
      let pager =
        Pager.create_file ~pool_size:t.pool_size ~io:t.io
          ~read_only:(t.mode = Read_only)
          (Filename.concat dir file)
      in
      if t.durable then Pager.set_dirty_pressure pager (fun () -> commit t);
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
let version t = t.version

let set_version t version =
  check_open t;
  if t.mode = Read_only then fail_read_only t "record the format version";
  t.version <- version;
  save_catalog t

let drop_table t name =
  check_open t;
  if t.mode = Read_only then fail_read_only t (Printf.sprintf "drop table %s" name);
  if not (List.exists (fun e -> String.equal e.table_name name) t.catalog) then
    raise Not_found;
  let entry = List.find (fun e -> String.equal e.table_name name) t.catalog in
  (* Settle outstanding dirty state first so the WAL never references
     files about to disappear. *)
  if t.durable then flush t;
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

let close t =
  if not t.closed then begin
    if t.durable then flush t;
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
