(* Minimal HTTP/1.x framing for the data-service gateway: an incremental
   request parser (heads, query strings, Content-Length bodies,
   pipelining, keep-alive) and a response renderer that always emits an
   explicit Content-Length and Connection header — no response may leave
   the framing ambiguous. Zero dependencies, no sockets: bytes in,
   requests out; the server loops own the I/O. *)

type request = {
  meth : string;  (* uppercased *)
  target : string;  (* raw request target *)
  path : string;  (* percent-decoded, query stripped *)
  query : (string * string) list;
  headers : (string * string) list;  (* names lowercased *)
  body : string;
  version : string;  (* "HTTP/1.0" | "HTTP/1.1" *)
}

let header r name =
  List.assoc_opt (String.lowercase_ascii name) r.headers

(* HTTP/1.1 defaults to persistent connections, 1.0 to one-shot; an
   explicit Connection header overrides either way. *)
let wants_keep_alive r =
  match header r "connection" with
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "close" -> false
      | "keep-alive" -> true
      | _ -> r.version = "HTTP/1.1")
  | None -> r.version = "HTTP/1.1"

(* --------------------------- Percent coding -------------------------- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n && hex_val s.[!i + 1] >= 0 && hex_val s.[!i + 2] >= 0 ->
        Buffer.add_char buf
          (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
        i := !i + 2
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (percent_decode kv, ""))

let query_param r name = List.assoc_opt name r.query

(* ------------------------------ Parser ------------------------------ *)

type decoder = {
  max_head : int;
  max_body : int;
  buf : Buffer.t;
  mutable broken : bool;
}

let default_max_head = 16 * 1024
let default_max_body = 256 * 1024

let create_decoder ?(max_head = default_max_head) ?(max_body = default_max_body)
    () =
  { max_head; max_body; buf = Buffer.create 512; broken = false }


let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty request head"
  | req_line :: header_lines -> (
      let strip l =
        let l = if l <> "" && l.[String.length l - 1] = '\r' then String.sub l 0 (String.length l - 1) else l in
        l
      in
      let req_line = strip req_line in
      match
        String.split_on_char ' ' req_line |> List.filter (fun s -> s <> "")
      with
      | [ meth; target; version ]
        when version = "HTTP/1.0" || version = "HTTP/1.1" ->
          let headers =
            List.filter_map
              (fun l ->
                let l = strip l in
                if l = "" then None
                else
                  match String.index_opt l ':' with
                  | Some i ->
                      Some
                        ( String.lowercase_ascii (String.sub l 0 i),
                          String.trim
                            (String.sub l (i + 1) (String.length l - i - 1)) )
                  | None -> None)
              header_lines
          in
          let raw_path, raw_query =
            match String.index_opt target '?' with
            | Some i ->
                ( String.sub target 0 i,
                  String.sub target (i + 1) (String.length target - i - 1) )
            | None -> (target, "")
          in
          Ok
            {
              meth = String.uppercase_ascii meth;
              target;
              path = percent_decode raw_path;
              query = parse_query raw_query;
              headers;
              body = "";
              version;
            }
      | _ -> Error (Printf.sprintf "malformed request line %S" req_line))

(* Feed raw bytes; returns every request completed so far. An [Error]
   poisons the parser — HTTP has no way to resynchronise a broken frame,
   so the connection must close after the error response. *)
let feed p data =
  if p.broken then Error "input discarded: a previous request was malformed"
  else begin
    Buffer.add_string p.buf data;
    let fail msg =
      p.broken <- true;
      Buffer.clear p.buf;
      Error msg
    in
    let rec drain acc =
      let s = Buffer.contents p.buf in
      match find_sub s "\r\n\r\n" 0 with
      | None ->
          if String.length s > p.max_head then
            fail (Printf.sprintf "request head exceeds the %d-byte cap" p.max_head)
          else Ok (List.rev acc)
      | Some head_end -> (
          if head_end > p.max_head then
            fail (Printf.sprintf "request head exceeds the %d-byte cap" p.max_head)
          else
            match parse_head (String.sub s 0 head_end) with
            | Error msg -> fail msg
            | Ok req -> (
                let content_length =
                  match header req "content-length" with
                  | None -> Ok 0
                  | Some v -> (
                      match int_of_string_opt (String.trim v) with
                      | Some n when n >= 0 -> Ok n
                      | Some _ | None -> Error "malformed Content-Length")
                in
                match content_length with
                | Error msg -> fail msg
                | Ok len when len > p.max_body ->
                    fail
                      (Printf.sprintf "request body exceeds the %d-byte cap"
                         p.max_body)
                | Ok len ->
                    let body_start = head_end + 4 in
                    if String.length s - body_start < len then Ok (List.rev acc)
                    else begin
                      let body = String.sub s body_start len in
                      let rest_start = body_start + len in
                      let rest =
                        String.sub s rest_start (String.length s - rest_start)
                      in
                      Buffer.clear p.buf;
                      Buffer.add_string p.buf rest;
                      drain ({ req with body } :: acc)
                    end))
    in
    drain []
  end

(* ----------------------------- Rendering ----------------------------- *)

let reason = function
  | 200 -> "OK"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

(* Every response is explicitly framed: Content-Length always present
   (even for 304/empty bodies), Connection always stated. *)
let render ?(status = 200) ?(content_type = "application/json")
    ?(extra = []) ?(keep_alive = false) body =
  (* One allocation: the body is copied once, behind its head. *)
  String.concat ""
    (Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n"
       status (reason status) content_type (String.length body)
    :: List.concat_map (fun (k, v) -> [ k; ": "; v; "\r\n" ]) extra
    @ [
        "Connection: ";
        (if keep_alive then "keep-alive" else "close");
        "\r\n\r\n";
        body;
      ])
