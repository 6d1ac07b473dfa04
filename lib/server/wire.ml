(* ----------------------------- Addresses --------------------------- *)

type addr =
  | Tcp of string * int
  | Unix_path of string

let unix_prefix = "unix:"

let parse_addr s =
  let s = String.trim s in
  let starts_with prefix =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  if s = "" then Error "empty address"
  else if starts_with unix_prefix then begin
    let path = String.sub s (String.length unix_prefix)
        (String.length s - String.length unix_prefix) in
    if path = "" then Error "unix: address needs a socket path"
    else Ok (Unix_path path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> (
        match int_of_string_opt s with
        | Some port when port >= 0 && port <= 65535 -> Ok (Tcp ("127.0.0.1", port))
        | Some port -> Error (Printf.sprintf "port %d out of range" port)
        | None ->
            Error
              (Printf.sprintf
                 "cannot parse address %S (expected HOST:PORT, :PORT, PORT or unix:PATH)"
                 s))
    | Some i -> (
        let host = String.sub s 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when port >= 0 && port <= 65535 -> Ok (Tcp (host, port))
        | Some port -> Error (Printf.sprintf "port %d out of range" port)
        | None -> Error (Printf.sprintf "cannot parse port in address %S" s))

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_path path -> unix_prefix ^ path

(* ----------------------------- Requests ---------------------------- *)

module Request = Crimson_gateway.Request
module Response = Crimson_gateway.Response

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* "HELLO, USE, … METRICS or QUIT": the advertised verbs, for the
   unknown-command hint. *)
let expected =
  match List.rev Request.wire_verbs with
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | [] -> ""

let parse_command line : (Request.t, Response.code * string) result =
  let line = String.trim line in
  if line = "" then Error (Response.Bad_request, "empty command")
  else
    let verb, payload = split_verb line in
    let verb = String.uppercase_ascii verb in
    match List.find_opt (fun v -> v.Request.verb = verb) Request.wire_table with
    | Some v -> Result.map_error (fun msg -> (Response.Bad_request, msg)) (v.parse payload)
    | None ->
        Error
          ( Response.Unknown_command,
            Printf.sprintf "unknown command %S (expected %s)" verb expected )

(* ------------------------------ Framing ---------------------------- *)

module Line_buffer = struct
  type t = {
    max_line : int;
    buf : Buffer.t;
    mutable poisoned : bool;
  }

  let create ~max_line = { max_line; buf = Buffer.create 256; poisoned = false }
  let pending t = Buffer.length t.buf

  let too_long t =
    t.poisoned <- true;
    Buffer.clear t.buf;
    Error (Printf.sprintf "request line exceeds the %d-byte cap" t.max_line)

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let feed t data =
    if t.poisoned then Error "input discarded: a previous line overflowed"
    else begin
      Buffer.add_string t.buf data;
      let s = Buffer.contents t.buf in
      let n = String.length s in
      let lines = ref [] in
      let start = ref 0 in
      let overflow = ref false in
      (try
         for i = 0 to n - 1 do
           if s.[i] = '\n' then begin
             if i - !start > t.max_line then begin
               overflow := true;
               raise Exit
             end;
             lines := strip_cr (String.sub s !start (i - !start)) :: !lines;
             start := i + 1
           end
         done
       with Exit -> ());
      if !overflow || n - !start > t.max_line then too_long t
      else begin
        let rest = String.sub s !start (n - !start) in
        Buffer.clear t.buf;
        Buffer.add_string t.buf rest;
        Ok (List.rev !lines)
      end
    end
end
