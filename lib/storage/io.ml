exception Crash

type fault = Fail_op | Torn_write | Crash_op | Power_cut

type plan = Count | Fault of fault * int | Short of int

type state = {
  plan : plan;
  mutable ops : int;
  mutable is_frozen : bool;
  (* Under [Power_cut]: each file written or truncated since its last
     fsync, with what it held before the first such operation. *)
  unsynced : (string, string) Hashtbl.t;
}

type t = Real | Sim of state
type file = { fd : Unix.file_descr; fpath : string; io : t }

let real = Real
let sim plan = Sim { plan; ops = 0; is_frozen = false; unsynced = Hashtbl.create 8 }
let faulty fault ~at = sim (Fault (fault, at))
let counting () = sim Count
let short_writes ~every = sim (Short (max 1 every))
let op_count = function Real -> 0 | Sim s -> s.ops
let frozen = function Real -> false | Sim s -> s.is_frozen

let io_failed ~file ~op e =
  Error.fail
    (Error.Io_failed { file; op; detail = Unix.error_message e })

let guard ~file ~op f =
  try f () with Unix.Unix_error (e, _, _) -> io_failed ~file ~op e

(* Read-only operations go through here: they never advance the fault
   clock, but a frozen backend is a powered-off machine, so they fail
   too. *)
let check_alive = function
  | Real -> ()
  | Sim s -> if s.is_frozen then raise Crash

let rec read_fd fd buf pos =
  if pos >= Bytes.length buf then pos
  else begin
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    match Unix.read fd buf pos (Bytes.length buf - pos) with
    | 0 -> pos
    | n -> read_fd fd buf (pos + n)
  end

(* A power cut: every file written since its last fsync goes back to
   what it held before. *)
let lose_unsynced s =
  Hashtbl.iter
    (fun path contents ->
      match Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 with
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              ignore (Unix.write_substring fd contents 0 (String.length contents)))
      | exception Unix.Unix_error _ -> ())
    s.unsynced;
  Hashtbl.reset s.unsynced

(* Outcome of consulting the fault plan for one mutating operation.
   [`Partial n] instructs a write to truncate its payload to [n] bytes;
   [`Torn n] does the same and freezes the backend afterwards. *)
let tick io ~file ~op ~len =
  match io with
  | Real -> `Proceed
  | Sim s ->
      if s.is_frozen then raise Crash;
      s.ops <- s.ops + 1;
      let firing =
        match s.plan with
        | Count -> false
        | Fault (_, at) -> s.ops = at
        | Short every -> s.ops mod every = 0
      in
      if not firing then `Proceed
      else begin
        match s.plan with
        | Count -> `Proceed
        | Short _ ->
            (* Only writes can be short; other operations pass. *)
            if len > 1 then `Partial (len / 2) else `Proceed
        | Fault (Fail_op, _) ->
            Error.fail (Error.Io_failed { file; op; detail = "injected fault" })
        | Fault (Crash_op, _) ->
            s.is_frozen <- true;
            raise Crash
        | Fault (Power_cut, _) ->
            lose_unsynced s;
            s.is_frozen <- true;
            raise Crash
        | Fault (Torn_write, _) ->
            s.is_frozen <- true;
            if len > 1 then `Torn (len / 2) else raise Crash
      end

let open_file io fpath =
  check_alive io;
  let fd =
    guard ~file:fpath ~op:"open" (fun () ->
        Unix.openfile fpath [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  in
  { fd; fpath; io }

let path f = f.fpath

(* Under [Power_cut], keep what a file held before its first write or
   truncate since its last fsync. *)
let note_write f =
  match f.io with
  | Sim ({ plan = Fault (Power_cut, _); _ } as s) when not (Hashtbl.mem s.unsynced f.fpath)
    ->
      let buf = Bytes.create (Unix.fstat f.fd).Unix.st_size in
      Hashtbl.replace s.unsynced f.fpath (Bytes.sub_string buf 0 (read_fd f.fd buf 0))
  | Real | Sim _ -> ()

let note_sync f =
  match f.io with Sim s -> Hashtbl.remove s.unsynced f.fpath | Real -> ()

let size f =
  check_alive f.io;
  guard ~file:f.fpath ~op:"stat" (fun () -> (Unix.fstat f.fd).Unix.st_size)

let pread f ~off buf ~pos ~len =
  check_alive f.io;
  let n =
    guard ~file:f.fpath ~op:"read" (fun () ->
        ignore (Unix.lseek f.fd off Unix.SEEK_SET);
        Unix.read f.fd buf pos len)
  in
  Crimson_obs.Cost.add_bytes_read n;
  n

let pwrite f ~off buf ~pos ~len =
  let do_write n =
    let written =
      guard ~file:f.fpath ~op:"write" (fun () ->
          note_write f;
          ignore (Unix.lseek f.fd off Unix.SEEK_SET);
          Unix.write f.fd buf pos n)
    in
    Crimson_obs.Cost.add_bytes_written written;
    written
  in
  match tick f.io ~file:f.fpath ~op:"write" ~len with
  | `Proceed -> do_write len
  | `Partial n -> do_write n
  | `Torn n ->
      (* Power died mid-write: a prefix reached the platter, the caller
         never learns how much. *)
      ignore (do_write n);
      raise Crash

let fsync f =
  match tick f.io ~file:f.fpath ~op:"fsync" ~len:0 with
  | `Proceed | `Partial _ ->
      guard ~file:f.fpath ~op:"fsync" (fun () -> Unix.fsync f.fd);
      note_sync f
  | `Torn _ -> raise Crash

let truncate f len =
  match tick f.io ~file:f.fpath ~op:"truncate" ~len:0 with
  | `Proceed | `Partial _ ->
      guard ~file:f.fpath ~op:"truncate" (fun () ->
          note_write f;
          Unix.ftruncate f.fd len)
  | `Torn _ -> raise Crash

let close f = try Unix.close f.fd with Unix.Unix_error _ -> ()

let file_exists io p =
  check_alive io;
  Sys.file_exists p

let read_file io p =
  check_alive io;
  if not (Sys.file_exists p) then None
  else
    Some
      (guard ~file:p ~op:"read" (fun () ->
           let f = open_file io p in
           Fun.protect
             ~finally:(fun () -> close f)
             (fun () ->
               let n = size f in
               let buf = Bytes.create n in
               let rec fill pos =
                 if pos < n then
                   let k = pread f ~off:pos buf ~pos ~len:(n - pos) in
                   if k = 0 then pos else fill (pos + k)
                 else pos
               in
               if fill 0 < n then
                 Error.fail
                   (Error.Io_failed { file = p; op = "read"; detail = "short read" });
               Bytes.unsafe_to_string buf)))

let write_all f contents =
  let buf = Bytes.unsafe_of_string contents in
  let len = Bytes.length buf in
  let rec go pos =
    if pos < len then go (pos + pwrite f ~off:pos buf ~pos ~len:(len - pos))
  in
  go 0

let rename io src dst =
  match tick io ~file:dst ~op:"rename" ~len:0 with
  | `Proceed | `Partial _ ->
      guard ~file:dst ~op:"rename" (fun () -> Unix.rename src dst)
  | `Torn _ -> raise Crash

let write_file_atomic io p contents =
  check_alive io;
  let tmp = p ^ ".tmp" in
  let f = open_file io tmp in
  Fun.protect
    ~finally:(fun () -> close f)
    (fun () ->
      truncate f 0;
      write_all f contents;
      fsync f);
  rename io tmp p

let remove io p =
  match tick io ~file:p ~op:"remove" ~len:0 with
  | `Proceed | `Partial _ ->
      if Sys.file_exists p then
        guard ~file:p ~op:"remove" (fun () -> Sys.remove p)
  | `Torn _ -> raise Crash
