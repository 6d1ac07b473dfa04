module Json = Crimson_obs.Json

exception Connection_error of string

let conn_error fmt = Printf.ksprintf (fun s -> raise (Connection_error s)) fmt

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received but not yet returned as lines *)
  mutable closed : bool;
}

let of_fd fd = { fd; buf = Buffer.create 256; closed = false }

let connect addr =
  match Conn.resolve addr with
  | Error msg -> conn_error "%s" msg
  | Ok (domain, sockaddr) -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sockaddr with
      | () -> of_fd fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          conn_error "cannot connect to %s: %s" (Wire.addr_to_string addr)
            (Unix.error_message e))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all t s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    match Unix.write_substring t.fd s !sent (n - !sent) with
    | written -> sent := !sent + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        conn_error "connection closed by server"
  done

(* First buffered line, if any; leaves the remainder buffered. *)
let take_line t =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
      Some line

let read_line t =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match take_line t with
    | Some line -> Some line
    | None -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
            Buffer.add_subbytes t.buf chunk 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None)
  in
  loop ()

let request_line t line =
  write_all t (line ^ "\n");
  read_line t

let request t line =
  match request_line t line with
  | Some reply -> Json.parse reply
  | None -> conn_error "connection closed by server"

let ok json = match Json.member "ok" json with Some (Json.Bool b) -> b | _ -> false

let str_field name json =
  match Json.member name json with Some (Json.Str s) -> Some s | _ -> None

let num_field name json =
  match Json.member name json with Some (Json.Num v) -> Some v | _ -> None
