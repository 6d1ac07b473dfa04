let magic_v1 = "CRIMWAL1"
let magic = "CRIMWAL2"

(* Registry telemetry: WAL traffic and the cost of its durability
   (fsyncs are charged to the cost record, storage.wal.fsync). *)
let m_appends = Crimson_obs.Metrics.counter "storage.wal.append"
let m_pages = Crimson_obs.Metrics.counter "storage.wal.pages"
let m_torn = Crimson_obs.Metrics.counter "storage.wal.torn_record"
let h_fsync = Crimson_obs.Metrics.histogram "storage.wal.fsync_ms"

let timed_fsync file =
  Crimson_obs.Cost.wal_fsync ();
  Crimson_obs.Span.record_traced h_fsync (fun () -> Io.fsync file)

type t = {
  handle : Io.file;
  mutable closed : bool;
}

type entry = {
  file : string;
  page_id : int;
  image : bytes;
}

type torn = {
  intact : int;
  detail : string;
}

type read_result =
  | Empty
  | Committed of entry list
  | Torn of torn

let wal_path page_file = page_file ^ ".wal"

let open_path ?(io = Io.real) path = { handle = Io.open_file io path; closed = false }
let open_for ?io page_file = open_path ?io (wal_path page_file)
let path (t : t) = Io.path t.handle

let check_open t = if t.closed then invalid_arg "Wal: already closed"

let write_all file bytes =
  let len = Bytes.length bytes in
  let rec go pos =
    if pos < len then go (pos + Io.pwrite file ~off:pos bytes ~pos ~len:(len - pos))
  in
  go 0

(* Additive checksum over one record: file tag, page id, page image. *)
let checksum file page_id image =
  let acc = ref ((page_id * 2654435761) land 0x3FFFFFFF) in
  String.iter (fun c -> acc := ((!acc * 31) + Char.code c) land 0x3FFFFFFF) file;
  for i = 0 to Bytes.length image - 1 do
    acc := ((!acc * 31) + Char.code (Bytes.get image i)) land 0x3FFFFFFF
  done;
  !acc

(* V1 checksum (no file tag) — kept so logs written before the format
   bump still replay on upgrade. *)
let checksum_v1 page_id image =
  let acc = ref (page_id * 2654435761) in
  for i = 0 to Bytes.length image - 1 do
    acc := ((!acc * 31) + Char.code (Bytes.get image i)) land 0x3FFFFFFF
  done;
  !acc

let append_entries t entries =
  check_open t;
  Crimson_obs.Metrics.Counter.incr m_appends;
  Crimson_obs.Metrics.Counter.add m_pages (List.length entries);
  Io.truncate t.handle 0;
  let total =
    8 + 4
    + List.fold_left
        (fun acc e -> acc + 4 + String.length e.file + 4 + Page.size + 4)
        0 entries
    + 4
  in
  let buf = Bytes.create total in
  Bytes.blit_string magic 0 buf 0 8;
  Crimson_util.Codec.set_u32 buf 8 (List.length entries);
  let pos = ref 12 in
  let sum = ref 0 in
  List.iter
    (fun e ->
      if Bytes.length e.image <> Page.size then
        invalid_arg "Wal.append_entries: image is not one page";
      Crimson_util.Codec.set_u32 buf !pos (String.length e.file);
      Bytes.blit_string e.file 0 buf (!pos + 4) (String.length e.file);
      let pos' = !pos + 4 + String.length e.file in
      Crimson_util.Codec.set_u32 buf pos' e.page_id;
      Bytes.blit e.image 0 buf (pos' + 4) Page.size;
      let ck = checksum e.file e.page_id e.image in
      Crimson_util.Codec.set_u32 buf (pos' + 4 + Page.size) ck;
      sum := (!sum + ck) land 0x3FFFFFFF;
      pos := pos' + 4 + Page.size + 4)
    entries;
  Crimson_util.Codec.set_u32 buf !pos !sum;
  write_all t.handle buf;
  timed_fsync t.handle

let append_batch t batch =
  append_entries t
    (List.map (fun (page_id, image) -> { file = ""; page_id; image }) batch)

let read_raw t =
  let len = Io.size t.handle in
  if len = 0 then None
  else begin
    let buf = Bytes.create len in
    let rec fill pos =
      if pos < len then
        let n = Io.pread t.handle ~off:pos buf ~pos ~len:(len - pos) in
        if n = 0 then pos else fill (pos + n)
      else pos
    in
    if fill 0 < len then None else Some buf
  end

let torn ~intact detail =
  Crimson_obs.Metrics.Counter.incr m_torn;
  Torn { intact; detail }

(* V1 layout: magic | n(u32) | n x [page_id(u32) image] | batch_cksum. *)
let decode_v1 buf len =
  let n = Crimson_util.Codec.get_u32 buf 8 in
  let expected = 12 + (n * (4 + Page.size)) + 4 in
  if len < expected then torn ~intact:0 "v1 log truncated before commit"
  else begin
    let entries = ref [] in
    let sum = ref 0 in
    let pos = ref 12 in
    for _ = 1 to n do
      let page_id = Crimson_util.Codec.get_u32 buf !pos in
      let image = Bytes.sub buf (!pos + 4) Page.size in
      sum := (!sum + checksum_v1 page_id image) land 0x3FFFFFFF;
      entries := { file = ""; page_id; image } :: !entries;
      pos := !pos + 4 + Page.size
    done;
    if Crimson_util.Codec.get_u32 buf !pos <> !sum then
      torn ~intact:0 "v1 commit checksum mismatch"
    else Committed (List.rev !entries)
  end

let decode_v2 buf len =
  let n = Crimson_util.Codec.get_u32 buf 8 in
  let entries = ref [] in
  let sum = ref 0 in
  let pos = ref 12 in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < n do
    (* Bounds-check the variable-length record before touching it: a
       truncated tail must classify as torn, never raise. *)
    if !pos + 4 > len then result := Some (torn ~intact:!i "record header truncated")
    else begin
      let flen = Crimson_util.Codec.get_u32 buf !pos in
      let rec_len = 4 + flen + 4 + Page.size + 4 in
      if flen > len || !pos + rec_len > len then
        result := Some (torn ~intact:!i "record truncated")
      else begin
        let file = Bytes.sub_string buf (!pos + 4) flen in
        let pos' = !pos + 4 + flen in
        let page_id = Crimson_util.Codec.get_u32 buf pos' in
        let image = Bytes.sub buf (pos' + 4) Page.size in
        let stored = Crimson_util.Codec.get_u32 buf (pos' + 4 + Page.size) in
        let ck = checksum file page_id image in
        if stored <> ck then
          result := Some (torn ~intact:!i "record checksum mismatch")
        else begin
          entries := { file; page_id; image } :: !entries;
          sum := (!sum + ck) land 0x3FFFFFFF;
          pos := !pos + rec_len;
          incr i
        end
      end
    end
  done;
  match !result with
  | Some r -> r
  | None ->
      if !pos + 4 > len then torn ~intact:n "commit record truncated"
      else if Crimson_util.Codec.get_u32 buf !pos <> !sum then
        torn ~intact:n "commit checksum mismatch"
      else Committed (List.rev !entries)

let read t =
  check_open t;
  match read_raw t with
  | None -> Empty
  | Some buf ->
      let len = Bytes.length buf in
      if len < 12 then torn ~intact:0 "shorter than a header"
      else begin
        let m = Bytes.sub_string buf 0 8 in
        if m = magic then decode_v2 buf len
        else if m = magic_v1 then decode_v1 buf len
        else torn ~intact:0 "bad magic"
      end

let read_committed t =
  match read t with
  | Committed entries -> Some (List.map (fun e -> (e.page_id, e.image)) entries)
  | Empty | Torn _ -> None

let clear t =
  check_open t;
  Io.truncate t.handle 0;
  timed_fsync t.handle

let close t =
  if not t.closed then begin
    Io.close t.handle;
    t.closed <- true
  end
