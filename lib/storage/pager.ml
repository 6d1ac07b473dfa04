module Counter = Crimson_obs.Metrics.Counter
module Cost = Crimson_obs.Cost

(* Page traffic is charged to the calling domain's cost record, which
   backs the storage.pager.* registry counters. *)
let h_fsync = Crimson_obs.Metrics.histogram "storage.pager.fsync_ms"

(* Crash-recovery telemetry: WAL replays applied on open and the pages
   they restored (Database counts discarded logs and times recovery). *)
let m_rec_replays = Crimson_obs.Metrics.counter "storage.recovery.replays"
let m_rec_pages = Crimson_obs.Metrics.counter "storage.recovery.pages"

(* Bytes of page buffers held by the frames of every open pager in the
   process. A frame gets its buffer the first time it holds a page and
   gives it back when its pager closes. *)
let frame_bytes = Atomic.make 0

let _ =
  Crimson_obs.Metrics.gauge_reading "storage.pager.frame_bytes" (fun () ->
      float_of_int (Atomic.get frame_bytes))

let () =
  Crimson_obs.Metrics.set_help "storage.pager.frame_bytes"
    "Bytes of page buffers allocated by the frames of the open pagers."

let timed_fsync file =
  Cost.pager_fsync ();
  Crimson_obs.Span.record h_fsync (fun () -> Io.fsync file)

type backend =
  | File of { file : Io.file }
  | Mem of { pages : bytes Crimson_util.Vec.t }

type frame = {
  mutable buf : bytes; (* empty until the frame first holds a page *)
  mutable page_id : int;
  mutable dirty : bool;
  mutable pins : int;
  (* LRU intrusive list; [-1] marks "not linked". *)
  mutable prev : int;
  mutable next : int;
}

type t = {
  backend : backend;
  frames : frame array;
  mutable frame_of_page : (int, int) Hashtbl.t;
  (* LRU list head/tail over frame indexes (head = most recent). *)
  mutable lru_head : int;
  mutable lru_tail : int;
  mutable free_frames : int list;
  mutable allocated : int; (* frames that have their page buffer *)
  mutable n_pages : int;
  mutable closed : bool;
  (* Database-managed pagers get a commit-the-whole-group callback:
     eviction pressure on a dirty frame must not write uncommitted pages
     to the file outside a WAL batch, so it forces a group commit
     instead (see Database). *)
  mutable dirty_pressure : (unit -> unit) option;
  (* Read-only pools refuse every mutating operation with a typed
     [Error.Read_only]: worker domains open the same immutable files as
     the coordinator and must never write through them. *)
  read_only : bool;
}

let make_frames pool_size =
  Array.init pool_size (fun _ ->
      { buf = Bytes.empty; page_id = -1; dirty = false; pins = 0; prev = -1; next = -1 })

let create ~pool_size ?(read_only = false) backend ~n_pages =
  let pool_size = max 8 pool_size in
  {
    backend;
    read_only;
    frames = make_frames pool_size;
    frame_of_page = Hashtbl.create (2 * pool_size);
    lru_head = -1;
    lru_tail = -1;
    free_frames = List.init pool_size Fun.id;
    allocated = 0;
    n_pages;
    closed = false;
    dirty_pressure = None;
  }

let write_page_at file page_id image =
  let off = page_id * Page.size in
  let rec drain pos =
    if pos < Page.size then
      drain (pos + Io.pwrite file ~off:(off + pos) image ~pos ~len:(Page.size - pos))
  in
  drain 0

(* Apply a committed WAL batch to the main file: the replay primitive
   of the database-level WAL's crash recovery (Database). *)
let replay_batch file batch =
  Counter.incr m_rec_replays;
  Counter.add m_rec_pages (List.length batch);
  List.iter (fun (page_id, image) -> write_page_at file page_id image) batch;
  timed_fsync file

let create_file ?(pool_size = 256) ?(io = Io.real) ?(read_only = false) path =
  if read_only && not (Io.file_exists io path) then
    Error.fail (Error.Read_only { file = path; op = "create" });
  let file = Io.open_file io path in
  let len = Io.size file in
  if len mod Page.size <> 0 then begin
    Io.close file;
    Error.fail
      (Error.Corrupt_page
         { file = path; detail = Printf.sprintf "unaligned length %d" len })
  end;
  create ~pool_size ~read_only (File { file }) ~n_pages:(len / Page.size)

let create_mem ?(pool_size = 256) () =
  create ~pool_size (Mem { pages = Crimson_util.Vec.create () }) ~n_pages:0

let check_open t = if t.closed then invalid_arg "Pager: already closed"

let page_count t = t.n_pages

let file_path t =
  match t.backend with File { file; _ } -> Some (Io.path file) | Mem _ -> None

let set_dirty_pressure t f = t.dirty_pressure <- Some f
let read_only t = t.read_only

let fail_read_only t op =
  let file = match file_path t with Some p -> p | None -> "<mem>" in
  Error.fail (Error.Read_only { file; op })

(* ------------------------------- LRU ------------------------------- *)

let lru_unlink t i =
  let f = t.frames.(i) in
  if f.prev >= 0 then t.frames.(f.prev).next <- f.next else t.lru_head <- f.next;
  if f.next >= 0 then t.frames.(f.next).prev <- f.prev else t.lru_tail <- f.prev;
  f.prev <- -1;
  f.next <- -1

let lru_push_front t i =
  let f = t.frames.(i) in
  f.prev <- -1;
  f.next <- t.lru_head;
  if t.lru_head >= 0 then t.frames.(t.lru_head).prev <- i;
  t.lru_head <- i;
  if t.lru_tail < 0 then t.lru_tail <- i

let lru_touch t i =
  if t.lru_head <> i then begin
    lru_unlink t i;
    lru_push_front t i
  end

(* ----------------------------- Backend ----------------------------- *)

let backend_read t page_id buf =
  Cost.page_read ();
  match t.backend with
  | File { file; _ } ->
      let off = page_id * Page.size in
      let rec fill pos =
        if pos < Page.size then begin
          let n = Io.pread file ~off:(off + pos) buf ~pos ~len:(Page.size - pos) in
          if n = 0 then
            Error.fail
              (Error.Corrupt_page
                 {
                   file = Io.path file;
                   detail = Printf.sprintf "pager: short read of page %d" page_id;
                 });
          fill (pos + n)
        end
      in
      fill 0
  | Mem { pages } -> Bytes.blit (Crimson_util.Vec.get pages page_id) 0 buf 0 Page.size

let backend_write t page_id buf =
  Cost.page_write ();
  match t.backend with
  | File { file; _ } -> write_page_at file page_id buf
  | Mem { pages } -> Bytes.blit buf 0 (Crimson_util.Vec.get pages page_id) 0 Page.size

(* ------------------------------ Frames ----------------------------- *)

let do_evict t i =
  let f = t.frames.(i) in
  if f.dirty then begin
    backend_write t f.page_id f.buf;
    f.dirty <- false
  end;
  Hashtbl.remove t.frame_of_page f.page_id;
  lru_unlink t i;
  f.page_id <- -1;
  Cost.pager_eviction ();
  i

let evict_one t =
  (* Walk from the LRU tail for the first unpinned frame, preferring a
     clean one: evicting clean frames never touches the backend, and
     under a group commit discipline dirty frames must not leak to the
     file between commit points. *)
  let rec find ~clean_only i =
    if i < 0 then None
    else
      let f = t.frames.(i) in
      if f.pins = 0 && ((not clean_only) || not f.dirty) then Some i
      else find ~clean_only f.prev
  in
  match find ~clean_only:true t.lru_tail with
  | Some i -> do_evict t i
  | None -> (
      match t.dirty_pressure with
      | Some commit -> (
          (* Commit the whole group early; afterwards some unpinned frame
             is clean (a commit cleans every frame). *)
          commit ();
          match find ~clean_only:true t.lru_tail with
          | Some i -> do_evict t i
          | None -> failwith "Pager: all frames pinned; pool too small")
      | None -> (
          match find ~clean_only:false t.lru_tail with
          | Some i -> do_evict t i
          | None -> failwith "Pager: all frames pinned; pool too small"))

let frame_for t page_id ~load =
  match Hashtbl.find_opt t.frame_of_page page_id with
  | Some i ->
      Cost.pager_hit ();
      lru_touch t i;
      i
  | None ->
      Cost.pager_miss ();
      let i =
        match t.free_frames with
        | i :: rest ->
            (* Frames leave the free list once, in index order, so this
               is the frame's first page: it gets its buffer now. *)
            t.free_frames <- rest;
            t.frames.(i).buf <- Bytes.create Page.size;
            t.allocated <- t.allocated + 1;
            ignore (Atomic.fetch_and_add frame_bytes Page.size);
            i
        | [] -> evict_one t
      in
      let f = t.frames.(i) in
      f.page_id <- page_id;
      f.dirty <- false;
      if load then backend_read t page_id f.buf
      else Bytes.fill f.buf 0 Page.size '\x00';
      Hashtbl.replace t.frame_of_page page_id i;
      lru_push_front t i;
      i

let allocate t =
  check_open t;
  if t.read_only then fail_read_only t "allocate page";
  let page_id = t.n_pages in
  t.n_pages <- t.n_pages + 1;
  (match t.backend with
  | File _ -> ()
  | Mem { pages } -> Crimson_util.Vec.push pages (Page.fresh ()));
  (* Materialise the frame zeroed; it will be written on eviction/flush. *)
  let i = frame_for t page_id ~load:false in
  t.frames.(i).dirty <- true;
  (* A fresh page counts as a cold fetch in miss accounting; undo that to
     keep hit-rate statistics about reads only. *)
  Cost.pager_unmiss ();
  page_id

let with_frame t page_id ~dirty f =
  check_open t;
  if dirty && t.read_only then fail_read_only t "mutate page";
  if page_id < 0 || page_id >= t.n_pages then
    invalid_arg (Printf.sprintf "Pager: page %d out of range [0,%d)" page_id t.n_pages);
  let i = frame_for t page_id ~load:true in
  let frame = t.frames.(i) in
  frame.pins <- frame.pins + 1;
  if dirty then frame.dirty <- true;
  Fun.protect
    ~finally:(fun () -> frame.pins <- frame.pins - 1)
    (fun () -> f frame.buf)

let with_page t page_id f = with_frame t page_id ~dirty:false f
let with_page_mut t page_id f = with_frame t page_id ~dirty:true f

let collect_dirty t =
  let dirty = ref [] in
  Array.iter
    (fun f -> if f.page_id >= 0 && f.dirty then dirty := (f.page_id, f.buf) :: !dirty)
    t.frames;
  List.rev !dirty

let dirty_batch t =
  check_open t;
  collect_dirty t

let sync t =
  check_open t;
  match t.backend with
  | File { file; _ } -> timed_fsync file
  | Mem _ -> ()

let flush t =
  check_open t;
  let dirty = collect_dirty t in
  if dirty <> [] then begin
    List.iter (fun (page_id, buf) -> backend_write t page_id buf) dirty;
    Array.iter (fun f -> if f.page_id >= 0 then f.dirty <- false) t.frames
  end

(* Close the backend and give the frames' buffers back, so a closed
   pager that is still referenced holds none of them. *)
let release t =
  (match t.backend with File { file } -> Io.close file | Mem _ -> ());
  Array.iter (fun f -> f.buf <- Bytes.empty) t.frames;
  ignore (Atomic.fetch_and_add frame_bytes (-t.allocated * Page.size));
  t.allocated <- 0;
  t.closed <- true

let close t =
  if not t.closed then begin
    flush t;
    release t
  end

let abandon t = if not t.closed then release t

type stats = {
  pool_size : int;
  resident : int;
  allocated : int;
}

let stats t =
  {
    pool_size = Array.length t.frames;
    resident = Hashtbl.length t.frame_of_page;
    allocated = t.allocated;
  }
