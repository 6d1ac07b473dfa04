(* Minimal blocking HTTP client for the data-service gateway: one
   connection, many requests (keep-alive), explicit status + headers +
   body so callers can drive conditional GETs (If-None-Match / 304).
   Used by `crimson http-get`, `crimson health`, the smoke scripts and
   the tests — no external HTTP library. *)

type response = {
  status : int;
  headers : (string * string) list;  (* names lowercased *)
  body : string;
}

type t = { fd : Unix.file_descr; buf : Buffer.t }

let connect ?(timeout = 5.0) addr =
  match Conn.resolve addr with
  | Error _ as e -> e
  | Ok (domain, sockaddr) -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
        Unix.connect fd sockaddr
      with
      | () -> Ok { fd; buf = Buffer.create 4096 }
      | exception Unix.Unix_error (e, fn, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

(* Find "\r\n\r\n" in [buf] starting at 0. *)
let head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty response head"
  | status_line :: header_lines -> (
      let strip s =
        let s = String.trim s in
        s
      in
      match String.split_on_char ' ' (strip status_line) with
      | _http :: code :: _ -> (
          match int_of_string_opt code with
          | None -> Error ("malformed status line: " ^ strip status_line)
          | Some status ->
              let headers =
                List.filter_map
                  (fun line ->
                    let line = strip line in
                    match String.index_opt line ':' with
                    | None -> None
                    | Some i ->
                        Some
                          ( String.lowercase_ascii (String.sub line 0 i),
                            String.trim
                              (String.sub line (i + 1)
                                 (String.length line - i - 1)) ))
                  header_lines
              in
              Ok (status, headers))
      | _ -> Error ("malformed status line: " ^ strip status_line))

(* Read more bytes into [t.buf]; false on EOF. *)
let fill t =
  let chunk = Bytes.create 4096 in
  match Unix.read t.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes t.buf chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let read_response t =
  let rec wait_head () =
    match head_end (Buffer.contents t.buf) with
    | Some i -> Ok i
    | None -> if fill t then wait_head () else Error "connection closed mid-response"
  in
  match wait_head () with
  | Error _ as e -> e
  | Ok i -> (
      let raw = Buffer.contents t.buf in
      let head = String.sub raw 0 i in
      match parse_head head with
      | Error _ as e -> e
      | Ok (status, headers) -> (
          let body_start = i + 4 in
          match
            Option.bind
              (List.assoc_opt "content-length" headers)
              int_of_string_opt
          with
          | Some len ->
              let rec wait_body () =
                if Buffer.length t.buf >= body_start + len then Ok ()
                else if fill t then wait_body ()
                else Error "connection closed mid-body"
              in
              (match wait_body () with
              | Error _ as e -> e
              | Ok () ->
                  let raw = Buffer.contents t.buf in
                  let body = String.sub raw body_start len in
                  (* Keep any pipelined remainder for the next response. *)
                  let rest =
                    String.sub raw (body_start + len)
                      (String.length raw - body_start - len)
                  in
                  Buffer.clear t.buf;
                  Buffer.add_string t.buf rest;
                  Ok { status; headers; body })
          | None ->
              (* No Content-Length: the peer signals the end by closing. *)
              let rec drain () = if fill t then drain () in
              drain ();
              let raw = Buffer.contents t.buf in
              let body =
                String.sub raw body_start (String.length raw - body_start)
              in
              Buffer.clear t.buf;
              Ok { status; headers; body }))

let request t ?(meth = "GET") ?(headers = []) ?body path =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  Buffer.add_string b "Host: crimson\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  (match body with
  | Some payload ->
      Buffer.add_string b
        (Printf.sprintf "Content-Length: %d\r\n" (String.length payload))
  | None -> ());
  Buffer.add_string b "\r\n";
  (match body with Some payload -> Buffer.add_string b payload | None -> ());
  let req = Buffer.contents b in
  match
    let rec write_all off =
      if off < String.length req then
        let n =
          Unix.write_substring t.fd req off (String.length req - off)
        in
        write_all (off + n)
    in
    write_all 0
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | () -> (
      match read_response t with
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | r -> r)

let get ?timeout ?headers addr path =
  match connect ?timeout addr with
  | Error _ as e -> e
  | Ok t ->
      Fun.protect
        ~finally:(fun () -> close t)
        (fun () -> request t ?headers path)
