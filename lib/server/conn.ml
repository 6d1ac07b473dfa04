(* Sockets and the one connection loop. Every serving domain runs
   [serve] over its own connection set: the calling domain, which also
   accepts (and at one worker serves the sessions itself), and each
   worker domain of a larger fleet. What a connection speaks is fixed at
   accept by the handler it is built with: wire lines or gateway HTTP
   into a Worker_core, observability HTTP into the obs routes, or a
   rejection waiting for the request it answers. *)

module Http = Crimson_gateway.Http

exception Bind_error of string

let bind_error fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------ Sockets ----------------------------- *)

let resolve = function
  | Wire.Unix_path path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Wire.Tcp (host, port) -> (
      match
        match Unix.inet_addr_of_string host with
        | inet -> Some inet
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0 ->
                Some h_addr_list.(0)
            | _ | (exception Not_found) -> None)
      with
      | Some inet ->
          let sockaddr = Unix.ADDR_INET (inet, port) in
          Ok (Unix.domain_of_sockaddr sockaddr, sockaddr)
      | None -> Error ("unknown host " ^ host))

(* A socket file whose server died refuses connections and may be
   replaced; one that accepts belongs to a live server, and anything
   else at the path is not ours to remove. *)
let clear_stale_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock probe;
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            false
        | exception Unix.Unix_error _ -> true
      in
      close_fd probe;
      if live then bind_error "cannot listen on unix:%s: address already in use" path;
      (try Sys.remove path with Sys_error _ -> ())
  | _ -> bind_error "%s exists and is not a socket" path

(* A Unix-domain listener binds and listens under a temporary name in
   the socket's directory, then [link]s the socket into place and drops
   the temporary name, so the path appears only once it accepts. [link]
   fails with [EEXIST] rather than replace a file, so a server that took
   the path since [clear_stale_socket] keeps it. *)
let temp_names = Atomic.make 0

let temp_path path =
  Filename.concat (Filename.dirname path)
    (Printf.sprintf ".%d.%d" (Unix.getpid ()) (Atomic.fetch_and_add temp_names 1))

let listen_on addr =
  let domain, sockaddr =
    match resolve addr with Ok r -> r | Error msg -> raise (Bind_error msg)
  in
  let temp =
    match addr with
    | Wire.Unix_path path ->
        clear_stale_socket path;
        Some (path, temp_path path)
    | Wire.Tcp _ -> None
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let unlink_temp () =
    Option.iter (fun (_, t) -> try Unix.unlink t with Unix.Unix_error _ -> ()) temp
  in
  try
    (match temp with
    | Some (_, t) -> Unix.bind fd (Unix.ADDR_UNIX t)
    | None ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sockaddr);
    Unix.listen fd 128;
    Option.iter (fun (path, t) -> Unix.link t path) temp;
    unlink_temp ();
    Unix.set_nonblock fd;
    fd
  with Unix.Unix_error (e, _, _) ->
    unlink_temp ();
    close_fd fd;
    if e = Unix.EEXIST then
      bind_error "cannot listen on %s: address already in use" (Wire.addr_to_string addr)
    else
      bind_error "cannot listen on %s: %s" (Wire.addr_to_string addr)
        (Unix.error_message e)

let accept lfd =
  match Unix.accept lfd with
  | fd, _peer ->
      Unix.set_nonblock fd;
      Some fd
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      None

(* ----------------------------- Connections -------------------------- *)

(* Replies waiting for the socket, oldest first, each written from where
   it lies. A reply of [direct_min] bytes or more waits as its own
   string. Shorter ones are copied once into a batch buffer, so a burst
   of pipelined replies leaves in one write; a drained batch's buffer is
   kept for the next batch. *)
type batch = { buf : bytes; mutable len : int }
type chunk = Reply of string | Batch of batch

let direct_min = 4096
let batch_size = 16384

type t = {
  fd : Unix.file_descr;
  out : chunk Queue.t;
  mutable out_pos : int;  (* bytes of the head chunk already written *)
  mutable pending : int;  (* bytes queued and not yet written *)
  mutable open_batch : batch option;  (* the newest chunk, while it takes more *)
  mutable spare : bytes;  (* a drained batch's buffer, or empty *)
  mutable closing : bool;  (* no more reads; close once [out] drains *)
  on_input : t -> string -> unit;
  on_close : unit -> unit;
  parked : (float * string) option;
      (* a rejection held until its request arrives or the time passes *)
}

(* A set's connections share one read buffer: the set is confined to
   its domain and a read is handed on as a fresh string. *)
type set = { mutable conns : t list; rbuf : bytes }

let create_set () = { conns = []; rbuf = Bytes.create 4096 }

let make ?parked ?(on_close = ignore) ~on_input fd =
  {
    fd;
    out = Queue.create ();
    out_pos = 0;
    pending = 0;
    open_batch = None;
    spare = Bytes.empty;
    closing = false;
    on_input;
    on_close;
    parked;
  }

let connection fd = make ~on_input:(fun _ _ -> ()) fd

(* Oldest first, the order [serve] visits connections in. *)
let add set c = set.conns <- set.conns @ [ c ]

let close set c =
  c.on_close ();
  close_fd c.fd;
  set.conns <- List.filter (fun c' -> c' != c) set.conns

let pending_out c = c.pending

let new_batch c =
  let buf =
    if Bytes.length c.spare > 0 then c.spare else Bytes.create batch_size
  in
  c.spare <- Bytes.empty;
  let b = { buf; len = 0 } in
  Queue.add (Batch b) c.out;
  c.open_batch <- Some b;
  b

let enqueue c s =
  let n = String.length s in
  c.pending <- c.pending + n;
  if n >= direct_min then begin
    Queue.add (Reply s) c.out;
    c.open_batch <- None
  end
  else if n > 0 then begin
    let b =
      match c.open_batch with
      | Some b when b.len + n <= Bytes.length b.buf -> b
      | Some _ | None -> new_batch c
    in
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n
  end

let reply_and_close c s =
  enqueue c s;
  c.closing <- true

(* One non-blocking write of the head chunk; false when the connection
   died. *)
let flush c =
  match Queue.peek_opt c.out with
  | None -> true
  | Some chunk -> (
      let len = match chunk with Reply s -> String.length s | Batch b -> b.len in
      let n = len - c.out_pos in
      match
        match chunk with
        | Reply s -> Unix.write_substring c.fd s c.out_pos n
        | Batch b -> Unix.write c.fd b.buf c.out_pos n
      with
      | written ->
          c.pending <- c.pending - written;
          c.out_pos <- c.out_pos + written;
          if c.out_pos = len then begin
            ignore (Queue.pop c.out);
            c.out_pos <- 0;
            match chunk with
            | Batch b ->
                (match c.open_batch with
                | Some o when o == b -> c.open_batch <- None
                | Some _ | None -> ());
                c.spare <- b.buf
            | Reply _ -> ()
          end;
          true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false)

(* One non-blocking read attempt, handed to the connection's handler. *)
let read set c =
  match Unix.read c.fd set.rbuf 0 (Bytes.length set.rbuf) with
  | 0 -> close set c
  | n -> c.on_input c (Bytes.sub_string set.rbuf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close set c

(* ------------------------------ Handlers ---------------------------- *)

type kind = Wire_conn | Http_conn

(* Requests are synchronous, so the loop heartbeat goes quiet while one
   runs: bracket each with the in-flight descriptor so the watchdog can
   judge it against its own deadline instead. *)
let watched core beat session ~verb f =
  Watchdog.begin_request beat ~verb
    ~session:(Worker_core.session_id session)
    ~deadline:
      (Unix.gettimeofday () +. (Worker_core.config core).Worker_core.request_timeout);
  Fun.protect ~finally:(fun () -> Watchdog.end_request beat) f

let wire_verb line =
  let t = String.trim line in
  String.uppercase_ascii
    (match String.index_opt t ' ' with Some i -> String.sub t 0 i | None -> t)

(* One session's input, whatever its framing: decode, then answer each
   complete request in order. A framing error gets one reply and closes;
   requests pipelined after a closing reply (QUIT, an HTTP close) are
   dropped. *)
let session_input core beat session ~decode ~framing_error ~verb ~handle c data =
  match decode data with
  | Error msg -> reply_and_close c (framing_error msg)
  | Ok requests ->
      List.iter
        (fun r ->
          if not c.closing then begin
            let body, close =
              watched core beat session ~verb:(verb r) (fun () -> handle r)
            in
            enqueue c body;
            if close then c.closing <- true
          end)
        requests

let adopt set core beat fd ~id kind =
  let session = Worker_core.accept_session core ~id in
  let on_input =
    match kind with
    | Wire_conn ->
        let lines =
          Wire.Line_buffer.create ~max_line:(Worker_core.config core).Worker_core.max_line
        in
        session_input core beat session ~decode:(Wire.Line_buffer.feed lines)
          ~framing_error:(fun msg ->
            (Worker_core.protocol_error core session msg).Worker_core.body)
          ~verb:wire_verb
          ~handle:(fun line ->
            let reply = Worker_core.handle_line core session line in
            (reply.Worker_core.body, reply.Worker_core.close))
    | Http_conn ->
        session_input core beat session ~decode:(Http.feed (Http.create_decoder ()))
          ~framing_error:(fun msg ->
            Http.render ~status:400
              (Crimson_gateway.Gateway.error_body Crimson_gateway.Response.Bad_request msg))
          ~verb:(fun (r : Http.request) -> r.Http.meth ^ " " ^ r.Http.path)
          ~handle:(Worker_core.handle_http core session)
  in
  add set (make ~on_close:(fun () -> Worker_core.close_session core session) ~on_input fd)

(* One request, one response, close: the observability endpoint. *)
let obs set ~answer ~on_close fd =
  let dec = Http.create_decoder () in
  add set
    (make ~on_close fd ~on_input:(fun c data ->
         match Http.feed dec data with
         | Ok [] -> ()
         | Ok (r :: _) -> reply_and_close c (answer (Ok r))
         | Error msg -> reply_and_close c (answer (Error msg))))

(* Best-effort one-shot write and close, for wire admission rejections:
   the reply is one short line, well under the socket send buffer. *)
let reject fd body =
  (try ignore (Unix.write_substring fd body 0 (String.length body))
   with Unix.Unix_error _ -> ());
  close_fd fd

(* Closing with the request still unread makes the kernel reset the
   connection, which can destroy the reply. So an HTTP rejection waits
   for its request (at most [linger_s] and the decoder's caps) before
   it answers and closes. Past [max_lingering] waiting at once, the
   rejection is written at once instead. *)
let linger_s = 1.0
let max_lingering = 16

let reject_http set fd reply =
  if List.length (List.filter (fun c -> c.parked <> None) set.conns) >= max_lingering
  then reject fd reply
  else
    let dec = Http.create_decoder () in
    add set
      (make fd ~parked:(Unix.gettimeofday () +. linger_s, reply)
         ~on_input:(fun c data ->
           match Http.feed dec data with
           | Ok [] -> ()
           | Ok _ | Error _ -> reply_and_close c reply))

(* -------------------------------- Loop ------------------------------ *)

let serve set ~stop ~timeout ~tick ~sources =
  while not (stop ()) do
    tick ();
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        match c.parked with
        | Some (until, reply) when now >= until && not c.closing ->
            reply_and_close c reply
        | Some _ | None -> ())
      set.conns;
    let readable =
      List.fold_left
        (fun acc c -> if c.closing then acc else c.fd :: acc)
        (List.map fst sources) set.conns
    in
    let writable =
      List.filter_map
        (fun c -> if pending_out c > 0 then Some c.fd else None)
        set.conns
    in
    match Unix.select readable writable [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        List.iter (fun (fd, ready) -> if List.memq fd r then ready ()) sources;
        (* Each connection flushes, then reads, before the next one's
           turn. Snapshot: handlers mutate [set.conns]. *)
        List.iter
          (fun c ->
            if List.memq c.fd w && ((not (flush c)) || (c.closing && pending_out c = 0))
            then close set c
            else if List.memq c.fd r then read set c)
          set.conns
  done

(* Graceful drain: requests are synchronous so none is in flight here;
   what remains is buffered replies. Give clients a bounded window to
   take their bytes, then close everything. *)
let drain set =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec go () =
    let waiting = List.filter (fun c -> pending_out c > 0) set.conns in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, w, _ ->
          List.iter
            (fun c -> if List.memq c.fd w && not (flush c) then close set c)
            waiting);
      go ()
    end
  in
  go ();
  List.iter (close set) set.conns
