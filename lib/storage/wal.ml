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
  mutable size : int; (* end of the last committed batch: the next one goes here *)
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
  | Committed of entry list list
  | Torn of torn

let open_path ?(io = Io.real) path =
  let handle = Io.open_file io path in
  match Io.size handle with
  | size -> { handle; size; closed = false }
  | exception e ->
      Io.close handle;
      raise e

let path (t : t) = Io.path t.handle
let size t = t.size

let check_open t = if t.closed then invalid_arg "Wal: already closed"

let write_all file ~off bytes =
  let len = Bytes.length bytes in
  let rec go pos =
    if pos < len then
      go (pos + Io.pwrite file ~off:(off + pos) bytes ~pos ~len:(len - pos))
  in
  go 0

(* Additive checksum over one record: file tag, page id, page image,
   defined bytewise as acc <- (31 * acc + byte) mod 2^30. Arithmetic
   mod 2^30 survives OCaml's 63-bit wraparound, so the image folds
   eight bytes per step, acc <- 31^8 * acc + sum of b_k * 31^(7-k),
   with one mask per step: the same value, and the eight products do
   not wait on each other. *)
let mask = 0x3FFFFFFF
let p2 = 31 * 31
let p3 = p2 * 31
let p4 = p3 * 31
let p5 = p4 * 31
let p6 = p5 * 31
let p7 = p6 * 31
let p8 = p7 * 31

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let checksum file page_id image =
  let acc = ref ((page_id * 2654435761) land mask) in
  String.iter (fun c -> acc := ((!acc * 31) + Char.code c) land mask) file;
  let len = Bytes.length image in
  let blocks = len land lnot 7 in
  let i = ref 0 in
  while !i < blocks do
    let j = !i in
    acc :=
      ((!acc * p8)
      + (byte image j * p7)
      + (byte image (j + 1) * p6)
      + (byte image (j + 2) * p5)
      + (byte image (j + 3) * p4)
      + (byte image (j + 4) * p3)
      + (byte image (j + 5) * p2)
      + (byte image (j + 6) * 31)
      + byte image (j + 7))
      land mask;
    i := j + 8
  done;
  for j = blocks to len - 1 do
    acc := ((!acc * 31) + Char.code (Bytes.get image j)) land mask
  done;
  !acc

let encode_batch entries =
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
      sum := (!sum + ck) land mask;
      pos := pos' + 4 + Page.size + 4)
    entries;
  Crimson_util.Codec.set_u32 buf !pos !sum;
  buf

(* The batch goes after the last committed one. An append that failed
   may have left part of its batch past that point: cut it first, so
   the log never holds bytes past its end that a reader could take for
   a batch. *)
let append_entries t entries =
  check_open t;
  Crimson_obs.Metrics.Counter.incr m_appends;
  Crimson_obs.Metrics.Counter.add m_pages (List.length entries);
  let buf = encode_batch entries in
  if Io.size t.handle <> t.size then Io.truncate t.handle t.size;
  write_all t.handle ~off:t.size buf;
  timed_fsync t.handle;
  t.size <- t.size + Bytes.length buf

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
  Error { intact; detail }

(* The batch at [start]: its entries and where the next batch begins,
   or why it is torn. *)
let decode_batch buf len start =
  if start + 12 > len then torn ~intact:0 "shorter than a header"
  else if Bytes.sub_string buf start 8 <> magic then torn ~intact:0 "bad magic"
  else begin
    let n = Crimson_util.Codec.get_u32 buf (start + 8) in
    let entries = ref [] in
    let sum = ref 0 in
    let pos = ref (start + 12) in
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
            sum := (!sum + ck) land mask;
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
        else Ok (List.rev !entries, !pos + 4)
  end

(* Batches in log order until the end of the file or the first torn
   one: a crash mid-append tears only the last batch, and the ones
   before it committed. *)
let read t =
  check_open t;
  match read_raw t with
  | None -> Empty
  | Some buf ->
      let len = Bytes.length buf in
      let rec batches acc start =
        if start = len then Committed (List.rev acc)
        else
          match (decode_batch buf len start, acc) with
          | Ok (entries, next), _ -> batches (entries :: acc) next
          | Error torn, [] -> Torn torn
          | Error _, _ -> Committed (List.rev acc)
      in
      batches [] 0

let clear t =
  check_open t;
  Io.truncate t.handle 0;
  t.size <- 0;
  timed_fsync t.handle

let close t =
  if not t.closed then begin
    Io.close t.handle;
    t.closed <- true
  end
