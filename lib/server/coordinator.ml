(* Who serves the sessions the calling domain admits.

   At one worker, the calling domain itself: its connection loop adopts
   every admitted connection into one Worker_core over the caller's
   read-write repository. No domain is spawned, the repository is not
   opened a second time, and history rows go straight into it. A
   spawned worker would open a second repository, and every pager
   preallocates 256 x 4 KiB frames per file.

   From two workers up, N worker domains, each running the same
   connection loop over a private read-only open of the repository
   directory, while the calling domain keeps the only read-write handle.
   Cross-domain traffic is limited to:

   - admitted connections, handed to a worker's inbox (round-robin)
     with a pipe-byte wakeup;
   - query-history rows, queued on a serialized channel the calling
     domain drains into its repository;
   - the fleet's sessions: the admission count (an atomic charged at
     accept) and the live-session table TOP reads, behind one mutex.

   Telemetry needs no step of its own: counters are atomic and
   process-global, so the server.* family already sums across workers,
   while server.worker.<id>.* exposes each worker's slice, and SLOWLOG
   reads every domain's slowlog ring in place. *)

module Repo = Crimson_core.Repo
module Log = (val Logs.src_log Worker_core.src : Logs.LOG)

type t = {
  beats : Watchdog.beat array;
  place : Unix.file_descr -> id:int -> Conn.kind -> unit;
  sources : (Unix.file_descr * (unit -> unit)) list;
  tick : unit -> unit;
  stop : unit -> unit;
}

let local ~config ~sessions set repo =
  let beat = Watchdog.make_beat ~worker:1 in
  let core = Worker_core.create ~config (Worker_core.local_ctx ~sessions repo) repo in
  {
    beats = [| beat |];
    place = (fun fd ~id kind -> Conn.adopt set core beat fd ~id kind);
    sources = [];
    tick = (fun () -> Watchdog.tick beat);
    stop = ignore;
  }

(* ------------------------------- Fleet ------------------------------- *)

(* The calling domain's view of one worker domain. *)
type slot = {
  w_id : int;  (* 1-based *)
  w_lock : Mutex.t;
  w_inbox : (Unix.file_descr * int * Conn.kind) Queue.t;  (* fd, session id, kind *)
  w_wake_r : Unix.file_descr;
  w_wake_w : Unix.file_descr;
  (* Heartbeat slot: written by the worker, read by the watchdog. *)
  w_beat : Watchdog.beat;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let nonblocking_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

(* Wake pipes are best-effort edge triggers: a full pipe already has a
   pending wakeup, a closed peer means shutdown is underway. *)
let wake fd =
  try ignore (Unix.write_substring fd "!" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let drain_pipe fd =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let take_all lock queue =
  locked lock (fun () ->
      let items = List.of_seq (Queue.to_seq queue) in
      Queue.clear queue;
      items)

(* One worker domain: open the repository read-only, then run the
   connection loop over whatever the calling domain hands it. *)
let worker ~config ~dir ~stop ~ready ~boot_failed ctx slot () =
  (* The calling domain flushed its handle before spawning, and no
     history row can be written before every worker reports ready, so
     this open sees a quiescent directory. *)
  let repo =
    match Repo.open_dir ~mode:Crimson_storage.Database.Read_only ~create:false dir with
    | repo -> repo
    | exception e ->
        Atomic.set boot_failed true;
        Log.err (fun m ->
            m "worker %d: cannot open %s read-only: %s" slot.w_id dir
              (Printexc.to_string e));
        raise e
  in
  (* Ready once the core exists: its server.worker.<id>.* slices are
     registered before the first scrape can be answered. *)
  let core = Worker_core.create ~config ctx repo in
  Atomic.incr ready;
  let set = Conn.create_set () in
  let adopt_inbox () =
    List.iter
      (fun (fd, id, kind) -> Conn.adopt set core slot.w_beat fd ~id kind)
      (take_all slot.w_lock slot.w_inbox)
  in
  Conn.serve set
    ~stop:(fun () -> Atomic.get stop)
    ~timeout:0.25
    ~tick:(fun () ->
      Watchdog.tick slot.w_beat;
      adopt_inbox ())
    ~sources:[ (slot.w_wake_r, fun () -> drain_pipe slot.w_wake_r) ];
  (* Connections still in the inbox are adopted so their admission
     slots release with the drain. *)
  adopt_inbox ();
  Conn.drain set;
  Repo.close repo;
  Log.info (fun m -> m "worker %d: drained and closed" slot.w_id)

let spawn ~(config : Worker_core.config) ~sessions ~stop repo =
  let workers = config.Worker_core.workers in
  let dir =
    match Repo.dir repo with
    | Some d -> d
    | None ->
        invalid_arg
          "serve --workers: a multi-worker server needs an on-disk repository \
           (worker domains re-open it read-only)"
  in
  (* Quiesce the files so the workers' read-only opens see a consistent
     image: a read-only open refuses a log that holds committed
     batches, and the flush empties it. *)
  Repo.flush repo;
  let history_lock = Mutex.create () in
  let history = Queue.create () in
  let history_r, history_w = nonblocking_pipe () in
  let slots =
    Array.init workers (fun i ->
        let r, w = nonblocking_pipe () in
        {
          w_id = i + 1;
          w_lock = Mutex.create ();
          w_inbox = Queue.create ();
          w_wake_r = r;
          w_wake_w = w;
          w_beat = Watchdog.make_beat ~worker:(i + 1);
        })
  in
  let started_at = Unix.gettimeofday () in
  let ctx slot =
    {
      Worker_core.worker_id = slot.w_id;
      workers;
      started_at;
      sessions;
      record_query =
        (fun ~elapsed_ms ~pages ~cost ~text ~result ->
          (* Runs later, on the calling domain, against its handle. *)
          let row () =
            ignore (Repo.record_query repo ~elapsed_ms ~pages ~cost ~text ~result)
          in
          locked history_lock (fun () -> Queue.push row history);
          wake history_w);
    }
  in
  let ready = Atomic.make 0 in
  let boot_failed = Atomic.make false in
  let domains =
    Array.map
      (fun slot ->
        Domain.spawn (worker ~config ~dir ~stop ~ready ~boot_failed (ctx slot) slot))
      slots
  in
  let write_history () = List.iter (fun row -> row ()) (take_all history_lock history) in
  let stop_fleet () =
    Atomic.set stop true;
    Array.iter (fun slot -> wake slot.w_wake_w) slots;
    Array.iter (fun d -> try Domain.join d with _ -> ()) domains;
    (* Rows queued while the fleet drained still reach the history. *)
    write_history ();
    Repo.flush repo;
    Array.iter (fun slot -> close_fd slot.w_wake_r; close_fd slot.w_wake_w) slots;
    close_fd history_r;
    close_fd history_w
  in
  (* Don't accept until every worker holds its read-only repository:
     from then on the directory only changes through the calling
     domain's handle, which the workers never read again. *)
  while
    Atomic.get ready < workers
    && (not (Atomic.get boot_failed))
    && not (Atomic.get stop)
  do
    Unix.sleepf 0.002
  done;
  if Atomic.get boot_failed then begin
    stop_fleet ();
    raise (Conn.Bind_error (Printf.sprintf "worker cannot open repository %s" dir))
  end;
  let rr = ref 0 in
  {
    beats = Array.map (fun slot -> slot.w_beat) slots;
    place =
      (fun fd ~id kind ->
        let slot = slots.(!rr mod workers) in
        incr rr;
        locked slot.w_lock (fun () -> Queue.push (fd, id, kind) slot.w_inbox);
        wake slot.w_wake_w);
    sources = [ (history_r, fun () -> drain_pipe history_r) ];
    (* The history channel drains every loop iteration; the wake pipe
       only bounds the latency while the loop is idle. *)
    tick = write_history;
    stop = stop_fleet;
  }
