(* Tests for the Crimson query service: wire framing and command
   parsing, listening-socket takeover rules, the worker core's session
   state, repository-open failure modes, and end-to-end tests that fork
   a real server on a Unix socket, drive it from concurrent client
   processes (including admission control), and check answers against
   direct library calls. *)

module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Query_lang = Crimson_core.Query_lang
module Summary = Crimson_core.Summary
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Conn = Crimson_server.Conn
module Client = Crimson_server.Client
module Http_client = Crimson_server.Http_client
module Http = Crimson_gateway.Http
module Collection = Crimson_collection.Collection
module Coll_lang = Crimson_collection.Coll_lang

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------ Wire -------------------------------- *)

let test_parse_addr () =
  let ok s = match Wire.parse_addr s with Ok a -> a | Error e -> Alcotest.fail e in
  (match ok "unix:/tmp/x.sock" with
  | Wire.Unix_path p -> check Alcotest.string "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "expected unix path");
  (match ok "localhost:7000" with
  | Wire.Tcp (h, p) ->
      check Alcotest.string "host" "localhost" h;
      check Alcotest.int "port" 7000 p
  | _ -> Alcotest.fail "expected tcp");
  (match ok ":7001" with
  | Wire.Tcp (h, p) ->
      check Alcotest.string "default host" "127.0.0.1" h;
      check Alcotest.int "port" 7001 p
  | _ -> Alcotest.fail "expected tcp");
  (match ok "7002" with
  | Wire.Tcp (_, p) -> check Alcotest.int "bare port" 7002 p
  | _ -> Alcotest.fail "expected tcp");
  List.iter
    (fun bad ->
      match Wire.parse_addr bad with
      | Ok _ -> Alcotest.failf "address %S should not parse" bad
      | Error _ -> ())
    [ ""; "unix:"; "host:99999"; "host:port"; "not an address" ];
  (* round trip *)
  check Alcotest.string "to_string" "unix:/a" (Wire.addr_to_string (ok "unix:/a"));
  check Alcotest.string "to_string tcp" "h:1" (Wire.addr_to_string (ok "h:1"))

let test_parse_command () =
  let module Request = Crimson_gateway.Request in
  let module Response = Crimson_gateway.Response in
  let ok line =
    match Wire.parse_command line with
    | Ok c -> c
    | Error (_, msg) -> Alcotest.fail msg
  in
  check Alcotest.bool "hello" true (ok "HELLO" = Request.Hello);
  check Alcotest.bool "hello lowercase" true (ok "hello" = Request.Hello);
  check Alcotest.bool "use" true (ok "USE gold" = Request.Use "gold");
  check Alcotest.bool "use spaces" true (ok "  use   my tree  " = Request.Use "my tree");
  check Alcotest.bool "seed" true (ok "SEED 42" = Request.Seed 42);
  check Alcotest.bool "query" true (ok "QUERY lca(A, B)" = Request.Query "lca(A, B)");
  check Alcotest.bool "stats" true (ok "STATS" = Request.Stats);
  check Alcotest.bool "slowlog" true (ok "SLOWLOG" = Request.Slowlog None);
  check Alcotest.bool "slowlog n" true (ok "slowlog 10" = Request.Slowlog (Some 10));
  check Alcotest.bool "metrics" true (ok "METRICS" = Request.Metrics);
  check Alcotest.bool "quit" true (ok "quit" = Request.Quit);
  check Alcotest.bool "sleep" true (ok "SLEEP 250" = Request.Sleep 250.0);
  check Alcotest.bool "sleep zero" true (ok "sleep 0" = Request.Sleep 0.0);
  (match Wire.parse_command "SLEEP -5" with
  | Ok _ -> Alcotest.fail "negative SLEEP should not parse"
  | Error (code, _) ->
      check Alcotest.string "sleep code" "bad_request"
        (Response.code_string code));
  (match Wire.parse_command "FROBNICATE 1" with
  | Ok _ -> Alcotest.fail "unknown verb should not parse"
  | Error (code, _) ->
      check Alcotest.string "unknown verb code" "unknown_command"
        (Response.code_string code));
  List.iter
    (fun bad ->
      match Wire.parse_command bad with
      | Ok _ -> Alcotest.failf "command %S should not parse" bad
      | Error _ -> ())
    [
      ""; "   "; "USE"; "SEED"; "SEED x"; "QUERY"; "HELLO there"; "FROBNICATE 1";
      "SLOWLOG x"; "SLOWLOG -1"; "METRICS now";
    ]

(* Bytes a client may send: random ones, every prefix of a valid
   request line, over-long lines, and valid lines pipelined with
   garbage. Framing and parsing never raise: a failure is the framing
   error string or a typed parse error. *)
let wire_valid =
  [
    "HELLO"; "use gold"; "QUERY lca(T0, 'T 7')"; "CONSENSUS boot 0.8"; "SUPPORT boot";
    "SLOWLOG 5"; "SLEEP 10"; "EXPLAIN sample(3, 1.0)"; "QUIT";
  ]

let wire_input =
  QCheck.Gen.(
    let garbage = string_size ~gen:char (0 -- 80) in
    let prefix = oneofl wire_valid >>= fun v -> map (String.sub v 0) (0 -- String.length v) in
    oneof
      [
        garbage;
        map (fun p -> p ^ "\n") prefix;
        map (fun n -> String.make n 'Q' ^ "\n") (60 -- 200);
        map
          (fun parts -> String.concat "\r\n" parts ^ "\n")
          (list_size (1 -- 5) (oneof [ oneofl wire_valid; prefix; garbage ]));
      ])

let prop_wire_never_raises =
  let module Response = Crimson_gateway.Response in
  QCheck.Test.make ~name:"framing and parsing never raise" ~count:500
    (QCheck.make ~print:(fun cs -> String.escaped (String.concat "|" cs))
       QCheck.Gen.(list_size (1 -- 4) wire_input))
    (fun chunks ->
      let lb = Wire.Line_buffer.create ~max_line:64 in
      List.for_all
        (fun chunk ->
          match Wire.Line_buffer.feed lb chunk with
          | Error msg -> msg <> ""
          | Ok lines ->
              List.for_all
                (fun line ->
                  match Wire.parse_command line with
                  | Ok _ -> true
                  | Error (code, msg) -> Response.code_string code <> "" && msg <> "")
                lines)
        chunks)

(* Every verb HELLO advertises parses, in any letter case, with a sample
   payload. *)
let prop_every_verb_parses =
  let sample = function
    | "USE" -> "gold"
    | "SEED" -> "7"
    | "QUERY" | "EXPLAIN" | "PROFILE" -> "lca(T0, T7)"
    | "CONSENSUS" | "SUPPORT" | "RFMATRIX" | "COLLSTATS" -> "boot"
    | "SLOWLOG" -> "3"
    | _ -> ""
  in
  QCheck.Test.make ~name:"every advertised verb parses" ~count:50
    (QCheck.make QCheck.Gen.(list_repeat 16 bool))
    (fun cases ->
      List.for_all
        (fun verb ->
          let cased =
            String.mapi
              (fun i c -> if List.nth cases (i mod 16) then Char.lowercase_ascii c else c)
              verb
          in
          match Wire.parse_command (cased ^ " " ^ sample verb) with
          | Ok _ -> true
          | Error (_, msg) -> QCheck.Test.fail_reportf "%s: %s" cased msg)
        Crimson_gateway.Request.wire_verbs)

let test_line_buffer () =
  let lb = Wire.Line_buffer.create ~max_line:32 in
  let feed s = match Wire.Line_buffer.feed lb s with
    | Ok lines -> lines
    | Error e -> Alcotest.failf "unexpected framing error: %s" e
  in
  check (Alcotest.list Alcotest.string) "partial" [] (feed "HEL");
  check (Alcotest.list Alcotest.string) "completes" [ "HELLO" ] (feed "LO\n");
  check (Alcotest.list Alcotest.string) "two at once + CR" [ "A"; "B" ] (feed "A\r\nB\nrest");
  check Alcotest.int "pending" 4 (Wire.Line_buffer.pending lb);
  check (Alcotest.list Alcotest.string) "rest completes" [ "rest" ] (feed "\n");
  (* Overflow: a line longer than max_line poisons the buffer. *)
  (match Wire.Line_buffer.feed lb (String.make 40 'x') with
  | Error e -> check Alcotest.bool "overflow names the cap" true (contains "32" e)
  | Ok _ -> Alcotest.fail "expected overflow");
  (match Wire.Line_buffer.feed lb "short\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned buffer must stay in error")

(* ------------------------------ Engine ------------------------------ *)

let load_test_repo () =
  let repo = Repo.open_mem () in
  let tree = Models.yule ~rng:(Prng.create 7) ~leaves:40 () in
  let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
  (repo, stored)

(* A core built the way the one-worker server builds it. Admission
   happens at accept in the server; [open_session] charges the slot the
   same way before the core materialises the session. *)
let core ?config repo =
  let sessions = Worker_core.create_sessions () in
  let t = Worker_core.create ?config (Worker_core.local_ctx ~sessions repo) repo in
  let next_id = ref 0 in
  let open_session () =
    Atomic.incr (Worker_core.admitted sessions);
    incr next_id;
    Worker_core.accept_session t ~id:!next_id
  in
  (t, open_session)

let body (r : Worker_core.reply) = r.Worker_core.body

let reply_json r = Json.parse (String.trim (body r))

let field name r =
  match Json.member name (reply_json r) with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (body r)

let is_ok r = match Json.member "ok" (reply_json r) with
  | Some (Json.Bool b) -> b
  | _ -> false

let expect_ok r =
  if not (is_ok r) then Alcotest.failf "expected ok reply, got %s" (body r);
  r

let expect_err r =
  if is_ok r then Alcotest.failf "expected error reply, got %s" (body r);
  (* Structured errors: {"code": <snake_case>, "message": <text>}. *)
  (match field "error" r with
  | Json.Obj fields ->
      (match List.assoc_opt "code" fields with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.failf "error lacks string code: %s" (body r));
      (match List.assoc_opt "message" fields with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.failf "error lacks string message: %s" (body r))
  | _ -> Alcotest.failf "error not an object: %s" (body r));
  r

let test_engine_sessions () =
  let repo, stored = load_test_repo () in
  let t, open_session = core repo in
  let s1 = open_session () in
  let s2 = open_session () in
  check Alcotest.int "two active" 2 (Worker_core.active_sessions t);
  (* HELLO reports the session id and stored trees. *)
  let r = expect_ok (Worker_core.handle_line t s1 "HELLO") in
  check Alcotest.bool "hello lists gold" true (contains "gold" (body r));
  (match field "session" r with
  | Json.Num v -> check Alcotest.int "session id" (Worker_core.session_id s1) (int_of_float v)
  | _ -> Alcotest.fail "session id not a number");
  (* QUERY before USE is a protocol error that keeps the session. *)
  let r = expect_err (Worker_core.handle_line t s1 "QUERY info()") in
  check Alcotest.bool "names USE" true (contains "USE" (body r));
  check Alcotest.bool "keeps session" false r.Worker_core.close;
  (* USE unknown tree errors; USE gold works and reports shape. *)
  ignore (expect_err (Worker_core.handle_line t s1 "USE nope"));
  let r = expect_ok (Worker_core.handle_line t s1 "USE gold") in
  (match field "leaves" r with
  | Json.Num v ->
      check Alcotest.int "leaf count" (Stored_tree.leaf_count stored) (int_of_float v)
  | _ -> Alcotest.fail "leaves not a number");
  (* Queries match direct library calls, including seeded sampling. *)
  ignore (expect_ok (Worker_core.handle_line t s1 "SEED 5"));
  let direct q =
    match Query_lang.run ~rng:(Prng.create 5) ~record:false repo stored q with
    | Ok o -> o.Query_lang.result
    | Error e -> Alcotest.failf "direct query failed: %s" e
  in
  let served q =
    match field "result" (expect_ok (Worker_core.handle_line t s1 ("QUERY " ^ q))) with
    | Json.Str s -> s
    | _ -> Alcotest.fail "result not a string"
  in
  check Alcotest.string "sample(3) deterministic" (direct "sample(3)") (served "sample(3)");
  check Alcotest.string "lca" (direct "lca(T0, T7)") (served "lca(T0, T7)");
  (* Sessions are independent: s2 still has no tree. *)
  ignore (expect_err (Worker_core.handle_line t s2 "QUERY info()"));
  (* Malformed input is an error reply, never a crash, session kept. *)
  let r = expect_err (Worker_core.handle_line t s1 "QUERY lca(((((") in
  check Alcotest.bool "malformed keeps session" false r.Worker_core.close;
  ignore (expect_err (Worker_core.handle_line t s1 "BOGUS"));
  ignore (expect_err (Worker_core.handle_line t s1 ""));
  (* STATS carries the registry, including server counters. *)
  let r = expect_ok (Worker_core.handle_line t s2 "STATS") in
  check Alcotest.bool "stats has registry" true (contains "server.requests" (body r));
  (* QUIT closes; close_session is idempotent and decrements. *)
  let r = expect_ok (Worker_core.handle_line t s1 "QUIT") in
  check Alcotest.bool "quit closes" true r.Worker_core.close;
  Worker_core.close_session t s1;
  Worker_core.close_session t s1;
  check Alcotest.int "one active" 1 (Worker_core.active_sessions t);
  Worker_core.close_session t s2;
  check Alcotest.int "none active" 0 (Worker_core.active_sessions t)

let test_engine_metrics () =
  Metrics.reset_all ();
  let repo, _stored = load_test_repo () in
  let t, open_session = core repo in
  let s = open_session () in
  ignore (Worker_core.handle_line t s "HELLO");
  ignore (Worker_core.handle_line t s "USE gold");
  ignore (Worker_core.handle_line t s "QUERY lca(T0, T1)");
  ignore (Worker_core.handle_line t s "NOT A COMMAND");
  Worker_core.close_session t s;
  check Alcotest.int "requests counted" 4 (Metrics.counter_value "server.requests");
  check Alcotest.int "errors counted" 1 (Metrics.counter_value "server.errors");
  check Alcotest.int "accepted" 1 (Metrics.counter_value "server.sessions.accepted");
  check Alcotest.int "closed" 1 (Metrics.counter_value "server.sessions.closed");
  (match Metrics.find "server.request_ms" with
  | Some (Metrics.Histogram h) ->
      check Alcotest.int "latencies observed" 4 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "server.request_ms not registered");
  (* The engine records served queries in the Query Repository. *)
  check Alcotest.bool "query recorded" true
    (List.exists (fun (q : Repo.query_record) -> q.text = "lca(T0, T1)") (Repo.history repo))

(* EXPLAIN / PROFILE / TOP: happy paths and every error path the wire
   grammar and engine can produce. *)
let test_explain_profile_top () =
  let repo, _stored = load_test_repo () in
  let t, open_session = core repo in
  let s = open_session () in
  (* Before USE: tree-dependent verbs refuse, TOP still answers. *)
  ignore (expect_err (Worker_core.handle_line t s "EXPLAIN lca(T0, T1)"));
  ignore (expect_err (Worker_core.handle_line t s "PROFILE lca(T0, T1)"));
  ignore (expect_ok (Worker_core.handle_line t s "TOP"));
  ignore (expect_ok (Worker_core.handle_line t s "USE gold"));
  (* EXPLAIN: a plan is a non-empty list of strings; nothing recorded. *)
  let before = List.length (Repo.history repo) in
  let r = expect_ok (Worker_core.handle_line t s "EXPLAIN lca(T0, T1)") in
  (match field "plan" r with
  | Json.List (Json.Str _ :: _) -> ()
  | _ -> Alcotest.failf "plan not a string list: %s" (body r));
  check Alcotest.int "explain records nothing" before (List.length (Repo.history repo));
  (* Error paths: empty argument (wire grammar), malformed query, and
     unknown species (execution-level resolution). *)
  ignore (expect_err (Worker_core.handle_line t s "EXPLAIN"));
  ignore (expect_err (Worker_core.handle_line t s "PROFILE"));
  ignore (expect_err (Worker_core.handle_line t s "TOP extra"));
  ignore (expect_err (Worker_core.handle_line t s "EXPLAIN lca((((("));
  ignore (expect_err (Worker_core.handle_line t s "PROFILE lca((((("));
  ignore (expect_err (Worker_core.handle_line t s "PROFILE lca(Nope, T1)"));
  (* PROFILE: the report's pages must equal the reply's pager-counted
     pages, and a warm repeat must be deterministic. *)
  let profile_pages r =
    let stage_counter name =
      match Json.member "total" (field "profile" r) with
      | Some total -> (
          match Json.member name total with
          | Some (Json.Num v) -> int_of_float v
          | _ -> 0)
      | None -> Alcotest.failf "profile lacks total: %s" (body r)
    in
    let reply_pages =
      match field "pages" r with
      | Json.Num v -> int_of_float v
      | _ -> Alcotest.fail "pages not a number"
    in
    (stage_counter "pager_hits" + stage_counter "pager_misses", reply_pages)
  in
  ignore (expect_ok (Worker_core.handle_line t s "QUERY lca(T0, T7)"));
  let r1 = expect_ok (Worker_core.handle_line t s "PROFILE lca(T0, T7)") in
  let report1, reply1 = profile_pages r1 in
  check Alcotest.int "profile pages match pager counters" reply1 report1;
  check Alcotest.bool "profiled query touched pages" true (reply1 > 0);
  let r2 = expect_ok (Worker_core.handle_line t s "PROFILE lca(T0, T7)") in
  let report2, reply2 = profile_pages r2 in
  check Alcotest.int "warm repeat: same pages (report)" report1 report2;
  check Alcotest.int "warm repeat: same pages (reply)" reply1 reply2;
  (* PROFILE records the query with its cost JSON. *)
  check Alcotest.bool "profile recorded with cost" true
    (List.exists
       (fun (q : Repo.query_record) ->
         q.text = "lca(T0, T7)" && String.length q.cost > 0 && q.cost.[0] = '{')
       (Repo.history repo));
  (* TOP: this session appears with its accumulated accounting. *)
  let r = expect_ok (Worker_core.handle_line t s "TOP") in
  (match field "sessions" r with
  | Json.List rows ->
      let mine =
        List.find_opt
          (fun row ->
            match Json.member "session" row with
            | Some (Json.Num v) -> int_of_float v = Worker_core.session_id s
            | _ -> false)
          rows
      in
      (match mine with
      | Some row ->
          (match Json.member "requests" row with
          | Some (Json.Num v) -> check Alcotest.bool "requests counted" true (v >= 10.0)
          | _ -> Alcotest.fail "session row lacks requests");
          (match Json.member "pages" row with
          | Some (Json.Num v) ->
              check Alcotest.bool "session pages accumulated" true (int_of_float v > 0)
          | _ -> Alcotest.fail "session row lacks pages");
          (match Json.member "last" row with
          | Some (Json.Str last) -> check Alcotest.string "last line" "TOP" last
          | _ -> Alcotest.fail "session row lacks last")
      | None -> Alcotest.fail "own session missing from TOP")
  | _ -> Alcotest.failf "sessions not a list: %s" (body r));
  Worker_core.close_session t s;
  (* A closed session leaves the TOP table. *)
  let s2 = open_session () in
  let r = expect_ok (Worker_core.handle_line t s2 "TOP") in
  (match field "sessions" r with
  | Json.List rows -> check Alcotest.int "only the live session" 1 (List.length rows)
  | _ -> Alcotest.fail "sessions not a list");
  Worker_core.close_session t s2

(* An over-budget PROFILE line dies in the line buffer before the
   engine ever sees it — same poisoning contract as any other verb. *)
let test_profile_over_budget_line () =
  let lb = Wire.Line_buffer.create ~max_line:64 in
  let huge = "PROFILE lca(" ^ String.make 128 'x' ^ ", T1)\n" in
  (match Wire.Line_buffer.feed lb huge with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected over-budget error");
  match Wire.Line_buffer.feed lb "TOP\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned buffer must stay in error"

let test_request_timeout () =
  (* A pathological query (deeply nested pattern parse is fast; use a
     huge sample instead? sampling validates k) — the reliable slow path
     is a clade over many species on a large tree. Rather than depend on
     machine speed, drive with_timeout indirectly: a 50 ms limit against
     a query that spins via repeated projection. Simpler and robust: a
     tiny limit and a query that always takes longer than it. *)
  let repo = Repo.open_mem () in
  let tree = Models.caterpillar ~rng:(Prng.create 3) ~leaves:4000 () in
  ignore (Loader.load_tree ~f:8 repo ~name:"deep" tree);
  let config = { Worker_core.default_config with Worker_core.request_timeout = 0.001 } in
  let t, open_session = core ~config repo in
  let s = open_session () in
  ignore (expect_ok (Worker_core.handle_line t s "USE deep"));
  let r = Worker_core.handle_line t s "QUERY project(T0, T1000, T2000, T3000, T3999)" in
  if is_ok r then
    (* Machine fast enough to beat 1 ms: not a failure of the timeout
       machinery, but the timeout path went unexercised. *)
    check Alcotest.bool "timeout untriggered but no crash" true true
  else begin
    check Alcotest.bool "timeout reported" true (contains "timed out" (body r));
    check Alcotest.bool "session survives timeout" false r.Worker_core.close;
    check Alcotest.bool "timeout counted" true
      (Metrics.counter_value "server.timeouts" > 0)
  end;
  (* The session keeps answering after a timeout. *)
  ignore (expect_ok (Worker_core.handle_line t s "QUERY depth(T3)"));
  Worker_core.close_session t s

(* --------------------------- Repo.open_dir -------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "crimson_srv" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_open_dir_errors () =
  with_tmp_dir (fun dir ->
      let missing = Filename.concat dir "absent" in
      (match Repo.open_dir ~create:false missing with
      | exception Repo.Open_error msg ->
          check Alcotest.bool "names missing dir" true (contains "no such directory" msg)
      | _ -> Alcotest.fail "missing dir should not open");
      (* An existing directory without a catalog is not a repository. *)
      let empty = Filename.concat dir "empty" in
      Unix.mkdir empty 0o755;
      (match Repo.open_dir ~create:false empty with
      | exception Repo.Open_error msg ->
          check Alcotest.bool "names the catalog" true (contains "catalog" msg)
      | _ -> Alcotest.fail "non-repository should not open");
      (* A file path is not a directory, with create either way. *)
      let file = Filename.concat dir "plain" in
      let oc = open_out file in
      output_string oc "x";
      close_out oc;
      (match Repo.open_dir ~create:false file with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "file path should not open");
      (match Repo.open_dir file with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "file path should not open with create");
      (* create:false on a real repository works. *)
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      Repo.close repo;
      let repo = Repo.open_dir ~create:false repo_dir in
      Repo.close repo)

(* ------------------------------ Conn -------------------------------- *)

(* Queued replies leave whole and in order however the socket takes
   them: a small reply, a 1 MiB reply and 50 pipelined small replies
   (half queued behind the large one at once, half while it is half
   written) drain through [Conn.flush] over a socketpair with a small
   send buffer, the peer reading what has arrived between flushes. Once
   the large reply is out, the 50 small ones leave in one write. *)
let test_conn_flush_order () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
      Unix.set_nonblock a;
      Unix.set_nonblock b;
      let c = Conn.connection a in
      let small i = Printf.sprintf "{\"ok\":true,\"reply\":%d}\n" i in
      let large = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
      let received = Buffer.create (1 lsl 21) in
      let rbuf = Bytes.create 65536 in
      let rec read_available () =
        match Unix.read b rbuf 0 (Bytes.length rbuf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes received rbuf 0 n;
            read_available ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      let flush () = check Alcotest.bool "peer alive" true (Conn.flush c) in
      let pipelined = List.init 50 (fun i -> small (i + 1)) in
      Conn.enqueue c (small 0);
      Conn.enqueue c large;
      List.iteri (fun i r -> if i < 25 then Conn.enqueue c r) pipelined;
      flush ();
      flush ();
      check Alcotest.bool "large reply half written" true
        (Conn.pending_out c > 0 && Conn.pending_out c < String.length large);
      List.iteri (fun i r -> if i >= 25 then Conn.enqueue c r) pipelined;
      let pipelined_bytes = String.length (String.concat "" pipelined) in
      let rounds = ref 0 in
      while Conn.pending_out c > pipelined_bytes do
        read_available ();
        flush ();
        incr rounds;
        if !rounds > 100_000 then Alcotest.fail "the large reply never drained"
      done;
      check Alcotest.int "the pipelined replies wait whole" pipelined_bytes
        (Conn.pending_out c);
      read_available ();
      flush ();
      check Alcotest.int "the pipelined replies leave in one write" 0 (Conn.pending_out c);
      check Alcotest.bool "an empty queue flushes" true (Conn.flush c);
      read_available ();
      let expected = String.concat "" ((small 0 :: large :: pipelined)) in
      let got = Buffer.contents received in
      check Alcotest.int "bytes received" (String.length expected) (String.length got);
      check Alcotest.bool "the replies' bytes, in order" true (String.equal expected got))

(* -------------------------- Listening sockets ------------------------ *)

(* A Unix socket path with a live server behind it is never taken over:
   the second listener is refused and the first keeps accepting. *)
let test_listen_live_socket () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "live.sock" in
      let first = Conn.listen_on (Wire.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> Unix.close first)
        (fun () ->
          (match Conn.listen_on (Wire.Unix_path path) with
          | fd ->
              Unix.close fd;
              Alcotest.fail "a second listener took over a live socket"
          | exception Conn.Bind_error msg ->
              check Alcotest.bool "names the conflict" true
                (contains "already in use" msg));
          let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close client)
            (fun () ->
              Unix.connect client (Unix.ADDR_UNIX path);
              ignore (Unix.select [ first ] [] [] 1.0);
              match Conn.accept first with
              | Some fd -> Unix.close fd
              | None -> Alcotest.fail "the first listener stopped accepting")))

(* A socket file whose server died refuses connections: it is stale and
   a new listener replaces it. *)
let test_listen_stale_socket () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "stale.sock" in
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX path);
      Unix.close dead;
      check Alcotest.bool "stale socket file left behind" true (Sys.file_exists path);
      let fd = Conn.listen_on (Wire.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          check Alcotest.(list string) "only the new socket" [ "stale.sock" ]
            (Array.to_list (Sys.readdir dir));
          let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close client)
            (fun () -> Unix.connect client (Unix.ADDR_UNIX path))))

(* The socket listens under a temporary name before it is linked to its
   path: once [listen_on] returns the path accepts, with no retry, and
   the directory holds the socket and nothing else, after a refused
   second listener too. *)
let test_listen_no_temp_left () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "s.sock" in
      let only what =
        check Alcotest.(list string) what [ "s.sock" ] (Array.to_list (Sys.readdir dir))
      in
      let fd = Conn.listen_on (Wire.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          only "after listen";
          let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close client)
            (fun () -> Unix.connect client (Unix.ADDR_UNIX path));
          (match Conn.listen_on (Wire.Unix_path path) with
          | second ->
              Unix.close second;
              Alcotest.fail "a second listener took over a live socket"
          | exception Conn.Bind_error _ -> ());
          only "after a refused listener"))

(* Anything but a socket at the path is left alone. *)
let test_listen_regular_file () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "plain" in
      let oc = open_out path in
      output_string oc "keep me";
      close_out oc;
      (match Conn.listen_on (Wire.Unix_path path) with
      | fd ->
          Unix.close fd;
          Alcotest.fail "listened over a regular file"
      | exception Conn.Bind_error _ -> ());
      check Alcotest.bool "file kept" true (Sys.file_exists path))

(* --------------------------- End-to-end ----------------------------- *)

(* The smoke test the acceptance criteria name: a forked server on an
   ephemeral Unix socket, >= 3 concurrent scripted client processes
   whose answers must match direct library calls, admission-control
   rejection, and a clean SIGTERM drain (exit 0). *)

let smoke_queries =
  [
    "info()";
    "lca(T0, T7)";
    "clade(T1, T2, T3)";
    "distance(T0, T9)";
    "sample(5)";
    "depth(T4)";
    "parent(T5)";
  ]

let test_e2e_smoke () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "s.sock" in
      (* Build the repository and pre-compute expected answers with
         direct library calls, before the server owns the directory. *)
      let expected =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        let rng = Prng.create 5 in
        let answers =
          List.map
            (fun q ->
              match Query_lang.run ~rng ~record:false repo stored q with
              | Ok o -> (q, o.Query_lang.result)
              | Error e -> Alcotest.failf "direct %S failed: %s" q e)
            smoke_queries
        in
        Repo.close repo;
        answers
      in
      (* Fork the server. *)
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 3;
                request_timeout = 10.0;
                max_line = 4096;
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let probe = Helpers.connect_when_listening ~deadline sock in
      check Alcotest.bool "socket appears" true (Sys.file_exists sock);
      Fun.protect
        ~finally:(fun () ->
          (* Belt and braces: never leave a server behind on failure. *)
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          (* Three concurrent scripted clients; each checks every answer
             against the pre-computed direct results (same SEED). *)
          flush stdout;
          flush stderr;
          let clients =
            List.init 3 (fun i ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        (* The readiness probe holds an admission slot:
                           the first client takes it over. *)
                        let c =
                          if i = 0 then Client.of_fd probe
                          else Client.connect (Wire.Unix_path sock)
                        in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then Unix._exit 4;
                        if not (Client.ok (Client.request c "SEED 5")) then Unix._exit 5;
                        let bad = ref 0 in
                        List.iter
                          (fun (q, want) ->
                            let reply = Client.request c ("QUERY " ^ q) in
                            match Client.str_field "result" reply with
                            | Some got when got = want -> ()
                            | _ -> incr bad)
                          expected;
                        (* Malformed input must answer, not disconnect. *)
                        let r = Client.request c "QUERY lca(((((" in
                        if Client.ok r then incr bad;
                        let r = Client.request c "NONSENSE" in
                        if Client.ok r then incr bad;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        if !bad = 0 then 0 else 1
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          Unix.close probe;
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "client exited %d" n
              | _, _ -> Alcotest.fail "client killed")
            clients;
          (* Admission control: fill all 3 slots, the 4th connection is
             rejected with a protocol error (not a hang). *)
          let held = List.init 3 (fun _ -> Client.connect (Wire.Unix_path sock)) in
          List.iter (fun c -> ignore (Client.request c "HELLO")) held;
          let over = Client.connect (Wire.Unix_path sock) in
          (match Client.read_line over with
          | Some line ->
              let j = Json.parse line in
              check Alcotest.bool "rejection is an error" false (Client.ok j);
              check Alcotest.bool "rejection names the limit" true
                (contains "limit" line)
          | None -> Alcotest.fail "over-limit connect saw EOF before the rejection");
          check Alcotest.bool "rejected connection closed" true
            (Client.read_line over = None);
          Client.close over;
          (* A freed slot admits again. *)
          (match held with
          | first :: _ ->
              ignore (Client.request first "QUIT");
              Client.close first
          | [] -> assert false);
          let again = Client.connect (Wire.Unix_path sock) in
          check Alcotest.bool "freed slot admits" true
            (Client.ok (Client.request again "HELLO"));
          (* One in-flight session with pending state: server queries are
             recorded; now drain. SIGTERM must flush and exit 0. *)
          ignore (Client.request again "USE gold");
          ignore (Client.request again "QUERY lca(T0, T1)");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "socket removed on shutdown" false (Sys.file_exists sock);
          Client.close again;
          List.iter (fun c -> Client.close c) (List.tl held);
          (* The server's Query Repository writes reached disk. *)
          let repo = Repo.open_dir ~create:false repo_dir in
          let served =
            List.filter
              (fun (q : Repo.query_record) -> q.text = "lca(T0, T7)")
              (Repo.history repo)
          in
          check Alcotest.bool "server recorded queries" true (List.length served >= 3);
          Repo.close repo))

(* --------------------------- Collection verbs ------------------------ *)

(* Collection queries need no USE: both the dedicated verbs and plain
   QUERY/EXPLAIN/PROFILE texts that parse as collection calls run off
   the bipartition dictionary, and the dedicated verbs answer
   byte-identically to their canonical QUERY spelling. *)
let test_collection_verbs () =
  let repo, _ = load_test_repo () in
  let tree = Models.yule ~rng:(Prng.create 9) ~leaves:15 () in
  let taxa =
    Array.to_list (Tree.leaves tree) |> List.filter_map (Tree.name tree)
  in
  let c = Collection.create repo ~name:"boot" ~taxa in
  ignore (Collection.ingest c tree);
  ignore (Collection.ingest c tree);
  let t, open_session = core repo in
  let s = open_session () in
  (* HELLO lists collections alongside trees. *)
  (match field "collections" (expect_ok (Worker_core.handle_line t s "HELLO")) with
  | Json.List [ Json.Str "boot" ] -> ()
  | other -> Alcotest.failf "collections field: %s" (Json.to_string other));
  let result line =
    match field "result" (expect_ok (Worker_core.handle_line t s line)) with
    | Json.Str r -> r
    | _ -> Alcotest.failf "non-string result for %s" line
  in
  let via_verb = result "CONSENSUS boot" in
  check Alcotest.string "verb matches canonical query text" via_verb
    (result "QUERY consensus('boot')");
  check Alcotest.string "threshold passes through"
    (result "CONSENSUS boot 1.0")
    (result "QUERY consensus('boot', 1.0)");
  check Alcotest.string "rf of identical replicates" "0 0\n0 0"
    (result "RFMATRIX boot");
  check Alcotest.bool "support runs" true (String.length (result "SUPPORT boot") > 0);
  check Alcotest.bool "collstats runs" true
    (contains "bipartitions" (result "COLLSTATS boot"));
  (* EXPLAIN and PROFILE route collection texts without a selected tree. *)
  (match field "plan" (expect_ok (Worker_core.handle_line t s "EXPLAIN consensus('boot')")) with
  | Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "collection explain plan empty");
  let r = expect_ok (Worker_core.handle_line t s "PROFILE consensus('boot')") in
  (match field "profile" r with
  | Json.Obj _ as p ->
      check Alcotest.bool "profile charges dict_scan" true
        (contains "dict_scan" (Json.to_string p))
  | _ -> Alcotest.fail "profile field missing");
  (* Errors stay protocol errors, not crashes. *)
  ignore (expect_err (Worker_core.handle_line t s "CONSENSUS"));
  ignore (expect_err (Worker_core.handle_line t s "CONSENSUS nosuch"));
  ignore (expect_err (Worker_core.handle_line t s "CONSENSUS boot high"));
  ignore (expect_err (Worker_core.handle_line t s "QUERY consensus('boot', 0.1)"));
  ignore (Worker_core.handle_line t s "QUIT")

(* --workers auto sizes the fleet from the machine: always at least one
   worker, and never the whole machine (the coordinator keeps a core
   when more than one is available). *)
let test_auto_workers () =
  let n = Worker_core.auto_workers () in
  check Alcotest.bool "auto workers >= 1" true (n >= 1);
  check Alcotest.bool "auto workers leaves the coordinator a core" true
    (n <= max 1 (Domain.recommended_domain_count () - 1))

(* ------------------------ Read-only repositories --------------------- *)

(* The worker-domain contract: a [~mode:Read_only] open serves every
   read path over the same files while refusing each mutation with the
   typed [Error.Read_only] — never a crash, never a silent write. *)
let test_read_only_mode () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let ro_tree = Models.yule ~rng:(Prng.create 13) ~leaves:10 () in
      let leaves =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 3) ~leaves:20 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        ignore (Repo.record_query repo ~text:"info()" ~result:"r");
        let taxa =
          Array.to_list (Tree.leaves ro_tree) |> List.filter_map (Tree.name ro_tree)
        in
        let c = Collection.create repo ~name:"boot" ~taxa in
        ignore (Collection.ingest c ro_tree);
        let n = Stored_tree.leaf_count stored in
        Repo.close repo;
        n
      in
      (* Read-only open of a missing directory refuses up front. *)
      (match
         Repo.open_dir ~mode:Crimson_storage.Database.Read_only
           (Filename.concat dir "absent")
       with
      | exception Repo.Open_error _ -> ()
      | _ -> Alcotest.fail "read-only open of a missing dir should refuse");
      let ro = Repo.open_dir ~mode:Crimson_storage.Database.Read_only repo_dir in
      check Alcotest.bool "mode reports read-only" true
        (Repo.mode ro = Crimson_storage.Database.Read_only);
      (* Every read path works: trees open, queries execute, history
         lists. *)
      let stored = Stored_tree.open_name ro "gold" in
      check Alcotest.int "tree readable" leaves (Stored_tree.leaf_count stored);
      (match Query_lang.run ~rng:(Prng.create 1) ~record:false ro stored "lca(T0, T1)" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "query on read-only repo failed: %s" e);
      check Alcotest.int "history readable" 1 (List.length (Repo.history ro));
      (* Mutations refuse with the typed error, naming the operation. *)
      (match Repo.record_query ro ~text:"x" ~result:"y" with
      | exception
          Crimson_storage.Error.Error (Crimson_storage.Error.Read_only _) ->
          ()
      | exception e ->
          Alcotest.failf "wrong refusal: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "record_query on a read-only repo should refuse");
      (* Every query-language mutating path surfaces the refusal as
         Error, never an escaped exception: recording a tree query,
         recording a collection query, and collection ingest. *)
      (match Query_lang.run ~rng:(Prng.create 1) ro stored "lca(T0, T1)" with
      | Error msg ->
          check Alcotest.bool "tree-query recording names read-only" true
            (contains "read-only" msg)
      | Ok _ -> Alcotest.fail "recording tree query on read-only should refuse");
      (match Coll_lang.run ro "consensus('boot')" with
      | Error msg ->
          check Alcotest.bool "collection recording names read-only" true
            (contains "read-only" msg)
      | Ok _ -> Alcotest.fail "recording collection query on read-only should refuse");
      (match Collection.ingest (Collection.open_name ro "boot") ro_tree with
      | exception
          Crimson_storage.Error.Error (Crimson_storage.Error.Read_only _) ->
          ()
      | exception e ->
          Alcotest.failf "ingest wrong refusal: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "collection ingest on a read-only repo should refuse");
      Repo.close ro;
      (* A read-only open leaves the repository writable for others. *)
      let rw = Repo.open_dir ~create:false repo_dir in
      ignore (Repo.record_query rw ~text:"z" ~result:"w");
      Repo.close rw)

(* -------------------------- Multi-worker fleet ----------------------- *)

(* Admission slots are released asynchronously: a worker decrements the
   shared count only after it drops the drained connection, so a connect
   racing a just-quit session can be rejected. Acquire a session on the
   server at [sock] by polling until admitted. *)
let admit sock =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let c = Client.connect (Wire.Unix_path sock) in
    match Client.request c "HELLO" with
    | reply when Client.ok reply -> c
    | _ | (exception Client.Connection_error _) ->
        Client.close c;
        if Unix.gettimeofday () >= deadline then
          Alcotest.fail "no admission slot freed within 5s"
        else begin
          ignore (Unix.select [] [] [] 0.05);
          go ()
        end
  in
  go ()

(* The coordinator acceptance tests: N worker domains behind one
   socket must answer byte-identically to direct library calls, reject
   over-limit connects fleet-wide, aggregate STATS so the server total
   equals the sum of per-worker slices, show sessions from different
   workers in one TOP, drain cleanly on SIGTERM (exit 0), and land
   every query-history row in the coordinator's repository. *)
let test_multiworker_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "w.sock" in
      let expected =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
        let stored = (Loader.load_tree ~f:4 repo ~name:"gold" tree).Loader.tree in
        let rng = Prng.create 5 in
        let answers =
          List.map
            (fun q ->
              match Query_lang.run ~rng ~record:false repo stored q with
              | Ok o -> (q, o.Query_lang.result)
              | Error e -> Alcotest.failf "direct %S failed: %s" q e)
            smoke_queries
        in
        Repo.close repo;
        answers
      in
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            (* The parent's in-process engine tests leave counts behind in
               the global registry; the forked server must start at zero
               like an exec'd one, or fleet totals include the residue. *)
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 3;
                request_timeout = 10.0;
                max_line = 4096;
                workers = 3;
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let probe = Helpers.connect_when_listening ~deadline sock in
      check Alcotest.bool "socket appears" true (Sys.file_exists sock);
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          (* Three concurrent scripted clients, answers byte-identical to
             the direct library results — whichever worker serves them. *)
          flush stdout;
          flush stderr;
          let clients =
            List.init 3 (fun i ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        (* The readiness probe holds an admission slot:
                           the first client takes it over. *)
                        let c =
                          if i = 0 then Client.of_fd probe
                          else Client.connect (Wire.Unix_path sock)
                        in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then Unix._exit 4;
                        if not (Client.ok (Client.request c "SEED 5")) then Unix._exit 5;
                        let bad = ref 0 in
                        List.iter
                          (fun (q, want) ->
                            let reply = Client.request c ("QUERY " ^ q) in
                            match Client.str_field "result" reply with
                            | Some got when got = want -> ()
                            | _ -> incr bad)
                          expected;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        if !bad = 0 then 0 else 1
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          Unix.close probe;
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "client exited %d" n
              | _, _ -> Alcotest.fail "client killed")
            clients;
          let admit () = admit sock in
          (* Fleet-wide admission: fill all 3 slots (they land on
             different workers round-robin), the 4th connect is rejected
             by the coordinator with the standard protocol error. *)
          let held = List.init 3 (fun _ -> admit ()) in
          List.iter
            (fun c ->
              ignore (Client.request c "USE gold");
              ignore (Client.request c "QUERY lca(T0, T7)"))
            held;
          let over = Client.connect (Wire.Unix_path sock) in
          (match Client.read_line over with
          | Some line ->
              let j = Json.parse line in
              check Alcotest.bool "rejection is an error" false (Client.ok j);
              check Alcotest.bool "rejection names the limit" true
                (contains "limit" line)
          | None -> Alcotest.fail "over-limit connect saw EOF before the rejection");
          check Alcotest.bool "rejected connection closed" true
            (Client.read_line over = None);
          Client.close over;
          let first = List.hd held in
          (* TOP answered by one worker must see every worker's sessions:
             the cores share one session table, so the reply has 3 rows
             spanning at least 2 distinct worker ids. *)
          let top = Client.request first "TOP" in
          (match Json.member "sessions" top with
          | Some (Json.List rows) ->
              check Alcotest.int "TOP sees all fleet sessions" 3 (List.length rows);
              let workers =
                List.sort_uniq compare
                  (List.filter_map
                     (fun row ->
                       match Json.member "worker" row with
                       | Some (Json.Num v) -> Some (int_of_float v)
                       | _ -> None)
                     rows)
              in
              check Alcotest.bool "TOP spans multiple workers" true
                (List.length workers >= 2)
          | _ -> Alcotest.fail "TOP lacks sessions");
          (match Json.member "active" top with
          | Some (Json.Num v) -> check Alcotest.int "fleet active" 3 (int_of_float v)
          | _ -> Alcotest.fail "TOP lacks active");
          (* STATS aggregation: the fleet-wide request counter equals the
             sum of the per-worker slices, counted at one quiescent
             moment (only this STATS is in flight). *)
          let stats = Client.request first "STATS" in
          let counters =
            match Json.member "metrics" stats with
            | Some m -> (
                match Json.member "counters" m with
                | Some (Json.Obj kvs) -> kvs
                | _ -> Alcotest.fail "STATS lacks counters")
            | None -> Alcotest.fail "STATS lacks metrics"
          in
          let counter name =
            match List.assoc_opt name counters with
            | Some (Json.Num v) -> int_of_float v
            | _ -> 0
          in
          let per_worker =
            counter "server.worker.1.requests"
            + counter "server.worker.2.requests"
            + counter "server.worker.3.requests"
          in
          check Alcotest.int "fleet requests = sum of worker slices"
            (counter "server.requests") per_worker;
          check Alcotest.bool "every worker served something" true
            (counter "server.worker.1.requests" > 0
            && counter "server.worker.2.requests" > 0
            && counter "server.worker.3.requests" > 0);
          (* A slot freed on one worker admits a new connection. The
             release is asynchronous — the worker decrements the shared
             admission count after it drops the drained connection — so
             poll briefly instead of racing the first attempt. *)
          ignore (Client.request first "QUIT");
          Client.close first;
          let again = admit () in
          check Alcotest.bool "freed slot admits" true true;
          (* Graceful SIGTERM: coordinator stops accepting, every worker
             drains and joins, exit 0, socket removed. *)
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "socket removed on shutdown" false
            (Sys.file_exists sock);
          Client.close again;
          List.iter (fun c -> Client.close c) (List.tl held);
          (* Every QUERY travelled the serialized write channel into the
             coordinator's repository: 3 smoke clients x 7 queries, plus
             3 held sessions' lca(T0, T7). *)
          let repo = Repo.open_dir ~create:false repo_dir in
          let history = Repo.history repo in
          let served q =
            List.length
              (List.filter (fun (r : Repo.query_record) -> r.text = q) history)
          in
          check Alcotest.bool "held queries recorded" true
            (served "lca(T0, T7)" >= 6);
          check Alcotest.int "smoke queries recorded" 3 (served "sample(5)");
          Repo.close repo))

(* ----------------------- Fleet observability ------------------------ *)

(* TOP's comparator must be a total order: cost descending, ties broken
   by (worker, session) — merged fleet rows never flap between
   renders. *)
let test_compare_rows_total () =
  let row ?(ms = 1.0) worker session =
    {
      Worker_core.r_worker = worker;
      r_session = session;
      r_tree = None;
      r_requests = 0;
      r_ms = ms;
      r_pages = 0;
      r_bytes_out = 0;
      r_started_at = 0.0;
      r_last = "";
    }
  in
  check Alcotest.bool "higher cost first" true
    (Worker_core.compare_rows (row ~ms:5.0 1 1) (row ~ms:2.0 1 2) < 0);
  let a = row 1 2 and b = row 2 1 in
  check Alcotest.bool "ties are antisymmetric" true
    (Worker_core.compare_rows a b = -Worker_core.compare_rows b a);
  check Alcotest.int "reflexive" 0 (Worker_core.compare_rows a a);
  let rows = [ row 2 1; row ~ms:3.0 1 9; row 1 2; row 1 1 ] in
  let order rs =
    List.map
      (fun r -> (r.Worker_core.r_worker, r.Worker_core.r_session))
      (List.sort Worker_core.compare_rows rs)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "deterministic order"
    [ (1, 9); (1, 1); (1, 2); (2, 1) ]
    (order rows);
  check Alcotest.bool "permutation-independent" true
    (order rows = order (List.rev rows))

(* SLEEP is fault injection for the watchdog tests: parsed always,
   refused unless the server opted into debug verbs. *)
let test_sleep_verb_gated () =
  let repo, _ = load_test_repo () in
  let t, open_session = core repo in
  let s = open_session () in
  ignore (expect_err (Worker_core.handle_line t s "SLEEP 5"));
  Worker_core.close_session t s;
  let t, open_session = core ~config:{ Worker_core.default_config with Worker_core.debug_verbs = true } repo in
  let s = open_session () in
  (match field "slept_ms" (expect_ok (Worker_core.handle_line t s "SLEEP 5")) with
  | Json.Num v -> check (Alcotest.float 1e-9) "echoes duration" 5.0 v
  | _ -> Alcotest.fail "slept_ms not a number");
  Worker_core.close_session t s

(* /metrics and METRICS render the one registry through one function:
   once requests have registered counters, gauges and histograms, the
   route's text equals a render of the quiescent registry, byte for
   byte. *)
let test_metrics_route_is_registry () =
  let repo, _ = load_test_repo () in
  let t, open_session = core repo in
  let s = open_session () in
  List.iter
    (fun line -> ignore (expect_ok (Worker_core.handle_line t s line)))
    [ "USE gold"; "QUERY lca(T0, T7)"; "PROFILE clade(T1, T2)"; "METRICS" ];
  Worker_core.close_session t s;
  let route =
    Crimson_server.Http_obs.routes
      ~healthz:(fun () -> (true, Json.Null))
      ~varz:(fun () -> Json.Null)
      ~slowlog:(fun () -> Json.Null)
      "/metrics"
  in
  check Alcotest.int "/metrics answers" 200 route.Crimson_server.Http_obs.status;
  let registry = Metrics.to_prometheus () in
  check Alcotest.bool "registry has histograms" true
    (contains "# TYPE crimson_server_request_ms histogram" registry);
  check Alcotest.string "/metrics = Metrics.to_prometheus" registry
    route.Crimson_server.Http_obs.body

let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)

(* Wait until a server accepts connections on [path]; the probe is
   closed at once, as these tests never fill the admission limit. *)
let wait_until_listening path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  Unix.close (Helpers.connect_when_listening ~deadline path);
  check Alcotest.bool (path ^ " appears") true (Sys.file_exists path)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* The fleet health plane end to end: a 4-worker server with the HTTP
   observability endpoint, a JSONL trace sink and the event journal,
   hammered by forked clients while the parent scrapes /metrics.

   - Scrape invariant: merged server.requests never exceeds the sum of
     the per-worker slices within one scrape, and never goes backwards
     between scrapes (slices increment before the global counter, and
     the exposition reads the global first).
   - Quiescent exactness: once the load stops, the merged request
     counter and request_ms histogram equal the sum of the worker
     slices, count for count.
   - Torn-line regression: four domains wrote every request's trace
     into one sink fd; every line of the file must parse as JSON. *)
let test_obs_fleet_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "o.sock" in
      let obs_sock = Filename.concat dir "obs.sock" in
      let trace_path = Filename.concat dir "trace.jsonl" in
      let events_path = Filename.concat dir "events.jsonl" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:30 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 16;
                request_timeout = 10.0;
                workers = 4;
                slowlog_ms = Some 0.0;
                trace_out = Some trace_path;
                events_out = Some events_path;
                obs_listen = Some (Wire.Unix_path obs_sock);
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_until_listening sock;
      wait_until_listening obs_sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let obs = Wire.Unix_path obs_sock in
          flush stdout;
          flush stderr;
          let clients =
            List.init 4 (fun _ ->
                match Unix.fork () with
                | 0 ->
                    Crimson_obs.Trace.child_reset ();
                    Crimson_obs.Events.child_reset ();
                    let status =
                      try
                        let c = Client.connect (Wire.Unix_path sock) in
                        if not (Client.ok (Client.request c "HELLO")) then Unix._exit 3;
                        if not (Client.ok (Client.request c "USE gold")) then
                          Unix._exit 4;
                        for _ = 1 to 25 do
                          ignore (Client.request c "QUERY lca(T0, T7)")
                        done;
                        ignore (Client.request c "QUIT");
                        Client.close c;
                        0
                      with _ -> 2
                    in
                    Unix._exit status
                | pid -> pid)
          in
          (* Scrape while the burst runs: the merged counter must be
             monotonic across scrapes and never exceed the sum of the
             slices within one scrape. *)
          let last_merged = ref 0.0 in
          for _ = 1 to 15 do
            (match Http_client.get obs "/metrics" with
            | Ok { Http_client.status = 200; body; _ } ->
                let merged =
                  match prom_value body "crimson_server_requests" with
                  | Some v -> v
                  | None -> Alcotest.fail "exposition lacks crimson_server_requests"
                in
                let slices =
                  List.fold_left
                    (fun acc i ->
                      match
                        prom_value body
                          (Printf.sprintf "crimson_server_worker_%d_requests" i)
                      with
                      | Some v -> acc +. v
                      | None -> Alcotest.failf "exposition lacks worker %d slice" i)
                    0.0 [ 1; 2; 3; 4 ]
                in
                check Alcotest.bool "merged <= sum of slices" true (merged <= slices);
                check Alcotest.bool "merged never goes backwards" true
                  (merged >= !last_merged);
                last_merged := merged
            | Ok { Http_client.status; _ } ->
                Alcotest.failf "/metrics answered %d" status
            | Error e -> Alcotest.failf "/metrics scrape failed: %s" e);
            ignore (Unix.select [] [] [] 0.02)
          done;
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED n -> Alcotest.failf "load client exited %d" n
              | _, _ -> Alcotest.fail "load client killed")
            clients;
          check Alcotest.bool "load reached the fleet" true (!last_merged > 0.0);
          (* Quiescent: merged totals equal the sum of the slices exactly,
             for the counter and for the histogram's sample count. *)
          let varz =
            match Http_client.get obs "/varz" with
            | Ok { Http_client.status = 200; body; _ } -> Json.parse body
            | Ok { Http_client.status; _ } -> Alcotest.failf "/varz answered %d" status
            | Error e -> Alcotest.failf "/varz failed: %s" e
          in
          let path keys j =
            List.fold_left
              (fun acc k ->
                match Option.bind acc (Json.member k) with
                | Some v -> Some v
                | None -> None)
              (Some j) keys
          in
          let num keys =
            match path keys varz with
            | Some (Json.Num v) -> v
            | _ -> Alcotest.failf "varz lacks %s" (String.concat "." keys)
          in
          let merged = num [ "metrics"; "counters"; "server.requests" ] in
          let slices =
            List.fold_left
              (fun acc i ->
                acc
                +. num
                     [
                       "metrics"; "counters";
                       Printf.sprintf "server.worker.%d.requests" i;
                     ])
              0.0 [ 1; 2; 3; 4 ]
          in
          check (Alcotest.float 0.0) "quiescent merged = sum of slices" slices
            merged;
          let hist_count name =
            num [ "metrics"; "histograms"; name; "count" ]
          in
          let slice_counts =
            List.fold_left
              (fun acc i ->
                acc
                +. hist_count (Printf.sprintf "server.worker.%d.request_ms" i))
              0.0 [ 1; 2; 3; 4 ]
          in
          check (Alcotest.float 0.0)
            "fleet request_ms count = sum of worker histograms" slice_counts
            (hist_count "server.request_ms");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "obs socket removed on shutdown" false
            (Sys.file_exists obs_sock);
          (* Four worker domains appended every traced request into one
             sink fd: no line may be torn or interleaved. *)
          let trace_lines =
            List.filter (fun l -> String.trim l <> "") (read_lines trace_path)
          in
          check Alcotest.bool "sink saw the burst" true
            (List.length trace_lines >= 100);
          let workers_seen =
            List.sort_uniq compare
              (List.filter_map
                 (fun line ->
                   match Json.parse line with
                   | j -> (
                       match
                         Option.bind (Json.member "meta" j) (Json.member "worker")
                       with
                       | Some (Json.Num w) -> Some (int_of_float w)
                       | _ -> None)
                   | exception Json.Parse_error _ ->
                       Alcotest.failf "torn JSONL line: %s" line)
                 trace_lines)
          in
          check Alcotest.bool "sink interleaves multiple domains" true
            (List.length workers_seen >= 2);
          List.iter
            (fun line ->
              match Json.parse line with
              | _ -> ()
              | exception Json.Parse_error _ ->
                  Alcotest.failf "torn event line: %s" line)
            (List.filter (fun l -> String.trim l <> "") (read_lines events_path))))

(* Fault injection: freeze one worker with SLEEP and watch /healthz flip
   to 503 within a watchdog interval of the stall budget, then back to
   200 when the worker recovers — with both transitions journaled. *)
let test_healthz_fault_e2e () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "h.sock" in
      let obs_sock = Filename.concat dir "hobs.sock" in
      let events_path = Filename.concat dir "events.jsonl" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:20 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 8;
                (* SLEEP 1500 against a 0.3 s deadline and factor 2: the
                   watchdog flags the worker ~0.6 s in and clears it on
                   the reply, well inside the sleep. stall_after stays
                   long so idle workers never trip it here. *)
                request_timeout = 0.3;
                workers = 2;
                stall_after = 30.0;
                stall_factor = 2.0;
                debug_verbs = true;
                events_out = Some events_path;
                obs_listen = Some (Wire.Unix_path obs_sock);
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_until_listening sock;
      wait_until_listening obs_sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let obs = Wire.Unix_path obs_sock in
          let healthz () =
            match Http_client.get obs "/healthz" with
            | Ok { Http_client.status; body; _ } -> (status, body)
            | Error e -> Alcotest.failf "/healthz failed: %s" e
          in
          check Alcotest.int "healthy at boot" 200 (fst (healthz ()));
          flush stdout;
          flush stderr;
          let sleeper =
            match Unix.fork () with
            | 0 ->
                Crimson_obs.Trace.child_reset ();
                Crimson_obs.Events.child_reset ();
                let status =
                  try
                    let c = Client.connect (Wire.Unix_path sock) in
                    if not (Client.ok (Client.request c "SLEEP 1500")) then
                      Unix._exit 3;
                    ignore (Client.request c "QUIT");
                    Client.close c;
                    0
                  with _ -> 2
                in
                Unix._exit status
            | pid -> pid
          in
          (* /healthz runs a watchdog pass per probe, so polling observes
             the 503 as soon as the stall budget (0.6 s) is crossed. *)
          let poll_until want =
            let deadline = Unix.gettimeofday () +. 5.0 in
            let rec go last =
              if fst last = want then last
              else if Unix.gettimeofday () >= deadline then
                Alcotest.failf "healthz never answered %d (last %d)" want
                  (fst last)
              else begin
                ignore (Unix.select [] [] [] 0.05);
                go (healthz ())
              end
            in
            go (healthz ())
          in
          let _, stalled_body = poll_until 503 in
          check Alcotest.bool "503 detail names the frozen verb" true
            (contains "SLEEP" stalled_body);
          let _, _ = poll_until 200 in
          (match Unix.waitpid [] sleeper with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "sleeper exited %d" n
          | _, _ -> Alcotest.fail "sleeper killed");
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped");
          (* Both transitions reached the event journal, in order. *)
          let kinds =
            List.filter_map
              (fun line ->
                if String.trim line = "" then None
                else
                  match Json.member "event" (Json.parse line) with
                  | Some (Json.Str k) -> Some k
                  | _ -> None)
              (read_lines events_path)
          in
          let rec after k = function
            | [] -> []
            | x :: rest -> if x = k then rest else after k rest
          in
          check Alcotest.bool "worker_stalled journaled" true
            (List.mem "worker_stalled" kinds);
          check Alcotest.bool "worker_recovered follows the stall" true
            (List.mem "worker_recovered" (after "worker_stalled" kinds))))

(* TOP reads every core's sessions in place. At two workers, a session
   whose first request (SLEEP 1500) is still running shows in a TOP that
   the other worker answers, with that request as its last line. *)
let test_top_lists_running_session () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "top.sock" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:20 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 4;
                request_timeout = 10.0;
                workers = 2;
                debug_verbs = true;
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_until_listening sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          (* Consecutive connects land on the two workers in turn. The
             sleeper's request goes out without waiting for its reply. *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let sleep_line = "SLEEP 1500\n" in
          ignore (Unix.write_substring fd sleep_line 0 (String.length sleep_line));
          let sent_at = Unix.gettimeofday () in
          let sleeper = Client.of_fd fd in
          let other = Client.connect (Wire.Unix_path sock) in
          let worker row =
            match Json.member "worker" row with
            | Some (Json.Num w) -> int_of_float w
            | _ -> Alcotest.fail "TOP row lacks worker"
          in
          let last row = Json.member "last" row in
          (* Poll TOP for at most 1 s of the 1.5 s sleep. *)
          let rec poll () =
            let rows =
              match Json.member "sessions" (Client.request other "TOP") with
              | Some (Json.List rows) -> rows
              | _ -> Alcotest.fail "TOP lacks sessions"
            in
            match List.find_opt (fun r -> last r = Some (Json.Str "SLEEP 1500")) rows with
            | Some row -> (row, rows)
            | None when Unix.gettimeofday () -. sent_at < 1.0 ->
                ignore (Unix.select [] [] [] 0.02);
                poll ()
            | None -> Alcotest.fail "TOP never listed the session inside SLEEP 1500"
          in
          let row, rows = poll () in
          check Alcotest.bool "answered while the sleep ran" true
            (Unix.gettimeofday () -. sent_at < 1.5);
          check Alcotest.bool "sleeping session counts its running request" true
            (Json.member "requests" row = Some (Json.Num 1.0));
          (match List.find_opt (fun r -> last r = Some (Json.Str "TOP")) rows with
          | Some own ->
              check Alcotest.bool "TOP answered by the other worker" true
                (worker own <> worker row)
          | None -> Alcotest.fail "TOP lacks its own session");
          (match Client.read_line sleeper with
          | Some reply -> check Alcotest.bool "SLEEP replies ok" true (Client.ok (Json.parse reply))
          | None -> Alcotest.fail "sleeper saw EOF");
          ignore (Client.request other "QUIT");
          Client.close other;
          ignore (Client.request sleeper "QUIT");
          Client.close sleeper;
          Unix.kill server_pid Sys.sigterm;
          match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped"))

(* The observability endpoint at one worker and at four: the four
   routes answer 200, an unknown path 404, a POST 405 and a malformed
   request line 400, and /healthz still answers while every session
   slot is taken, because obs connections never hold one. *)
let obs_routes ~workers () =
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "r.sock" in
      let obs_sock = Filename.concat dir "robs.sock" in
      (let repo = Repo.open_dir repo_dir in
       let tree = Models.yule ~rng:(Prng.create 11) ~leaves:20 () in
       ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
       Repo.close repo);
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Crimson_obs.Trace.child_reset ();
            Crimson_obs.Events.child_reset ();
            Crimson_obs.Metrics.reset_all ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 2;
                workers;
                obs_listen = Some (Wire.Unix_path obs_sock);
              }
            in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () -> Server.run ~config repo (Wire.Unix_path sock));
            Unix._exit 0
        | pid -> pid
      in
      wait_until_listening sock;
      wait_until_listening obs_sock;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let obs = Wire.Unix_path obs_sock in
          let status ?meth path =
            match Http_client.connect obs with
            | Error e -> Alcotest.failf "connect to obs: %s" e
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Http_client.close c)
                  (fun () ->
                    match Http_client.request c ?meth path with
                    | Ok r -> r.Http_client.status
                    | Error e -> Alcotest.failf "%s: %s" path e)
          in
          List.iter
            (fun path -> check Alcotest.int path 200 (status path))
            [ "/metrics"; "/healthz"; "/varz"; "/slowlog" ];
          check Alcotest.int "unknown path" 404 (status "/nope");
          check Alcotest.int "POST" 405 (status ~meth:"POST" "/metrics");
          (match
             Helpers.raw_exchange (Unix.ADDR_UNIX obs_sock) "NONSENSE\r\n\r\n"
           with
          | Ok raw ->
              check Alcotest.bool "malformed request line" true
                (String.length raw >= 12 && String.sub raw 0 12 = "HTTP/1.1 400")
          | Error e -> Alcotest.failf "malformed request: %s" e);
          let held = List.init 2 (fun _ -> admit sock) in
          check Alcotest.int "healthz with every slot held" 200 (status "/healthz");
          List.iter Client.close held;
          Unix.kill server_pid Sys.sigterm;
          match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, _ -> Alcotest.fail "server stopped"))

let test_obs_routes_single () = obs_routes ~workers:1 ()
let test_obs_routes_fleet () = obs_routes ~workers:4 ()

(* ---------------------------- Wire parity --------------------------- *)

(* Replay a fixed script against a deterministic repository and compare
   every reply byte-for-byte with the committed golden transcript
   (test/data/wire_parity.golden). This pins the wire protocol across
   refactors of the dispatch path: success replies for the existing
   verbs must not change shape, field order or formatting.

   Out of scope, by design: HELLO (sanctioned to grow protocol/verb
   advertisement fields), error replies (sanctioned to move to
   structured {code, message} objects), and the clock-dependent
   STATS/METRICS/TOP snapshots. Wall-clock and GC fields that vary run
   to run (elapsed_ms, minor/major words) are normalised to 0 on both
   sides before comparing.

   After the wire script, a second session replays the /v1 routes
   through [Worker_core.handle_http] ([parity_http_script]). Each
   exchange records its status, its Content-Type and its body byte for
   byte, and only whether an ETag came back: the tag's value follows
   the catalog row, not the reply.

   Regenerate after an intentional protocol change with
     CRIMSON_PARITY_PROMOTE=$PWD/test/data/wire_parity.golden \
       dune exec test/test_server.exe -- test parity *)

let parity_script =
  [
    "USE gold";
    "SEED 42";
    "QUERY info()";
    "QUERY lca(T0, T7)";
    "QUERY distance(T0, T9)";
    "QUERY clade(T1, T2, T3)";
    "QUERY path(T0, T5)";
    "QUERY depth(T3)";
    "QUERY parent(T3)";
    "QUERY children(T3)";
    "QUERY project(T0, T1, T2)";
    "QUERY sample(4)";
    "QUERY sample(3, 1.0)";
    "QUERY frontier(0.5)";
    "QUERY consensus('boot')";
    "EXPLAIN lca(T0, T7)";
    "EXPLAIN consensus('boot')";
    "PROFILE lca(T0, T7)";
    "CONSENSUS boot";
    "CONSENSUS boot 0.8";
    "SUPPORT boot";
    "RFMATRIX boot";
    "COLLSTATS boot";
    "SLOWLOG";
    "SLOWLOG 5";
    "QUIT";
  ]

let parity_http_script =
  [
    "/v1/trees/gold/overview?depth=0";
    "/v1/trees/gold/overview?depth=1";
    "/v1/trees/gold/overview?depth=2";
    "/v1/trees/gold/overview?depth=64";
    "/v1/trees/gold/clade?species=T1,T2,T3";
    "/v1/trees/gold/clade?species=T1,T2,T3&format=newick";
    "/v1/trees";
    "/v1/trees/gold";
    "/v1/doc";
    "/v1/trees/nope/overview";
    "/v1/trees/gold/overview?depth=x";
  ]

(* A GET of [target] as the gateway's decoder hands it over. *)
let http_get target =
  match
    Http.feed (Http.create_decoder ())
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: crimson\r\n\r\n" target)
  with
  | Ok [ r ] -> r
  | _ -> Alcotest.failf "cannot decode GET %s" target

(* A rendered response's status, headers (names lowercased) and body. *)
let http_parts raw =
  let rec head_end i =
    if i + 4 > String.length raw then Alcotest.failf "unframed response %S" raw
    else if String.sub raw i 4 = "\r\n\r\n" then i
    else head_end (i + 1)
  in
  let e = head_end 0 in
  match String.split_on_char '\n' (String.sub raw 0 e) with
  | status_line :: lines ->
      let header line =
        match String.index_opt line ':' with
        | Some i ->
            Some
              ( String.lowercase_ascii (String.sub line 0 i),
                String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
        | None -> None
      in
      ( int_of_string (List.nth (String.split_on_char ' ' status_line) 1),
        List.filter_map header lines,
        String.sub raw (e + 4) (String.length raw - e - 4) )
  | [] -> Alcotest.failf "empty response head %S" raw

(* Zero every numeric field whose value is clock- or GC-dependent, so
   the transcript is stable while everything else stays byte-exact. *)
let parity_normalise body =
  let volatile = [ "\"elapsed_ms\":"; "\"ms\":"; "\"minor_words\":"; "\"major_words\":" ] in
  let buf = Buffer.create (String.length body) in
  let n = String.length body in
  let starts_with_at i p =
    i + String.length p <= n && String.sub body i (String.length p) = p
  in
  let is_num_char ch =
    (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let i = ref 0 in
  while !i < n do
    match List.find_opt (starts_with_at !i) volatile with
    | Some p ->
        Buffer.add_string buf p;
        Buffer.add_char buf '0';
        i := !i + String.length p;
        while !i < n && is_num_char body.[!i] do incr i done
    | None ->
        Buffer.add_char buf body.[!i];
        incr i
  done;
  Buffer.contents buf

let parity_transcript () =
  let repo = Repo.open_mem () in
  let gold = Models.yule ~rng:(Prng.create 7) ~leaves:40 () in
  ignore (Loader.load_tree ~f:4 repo ~name:"gold" gold);
  let boot = Models.yule ~rng:(Prng.create 9) ~leaves:15 () in
  let taxa = Array.to_list (Tree.leaves boot) |> List.filter_map (Tree.name boot) in
  let c = Collection.create repo ~name:"boot" ~taxa in
  ignore (Collection.ingest c boot);
  ignore (Collection.ingest c (Models.yule ~rng:(Prng.create 10) ~leaves:15 ()));
  let t, open_session = core repo in
  let s = open_session () in
  let out = Buffer.create 4096 in
  List.iter
    (fun line ->
      let reply = Worker_core.handle_line t s line in
      Buffer.add_string out ("> " ^ line ^ "\n");
      Buffer.add_string out (parity_normalise (body reply)))
    parity_script;
  let h = open_session () in
  List.iter
    (fun target ->
      let raw, _ = Worker_core.handle_http t h (http_get target) in
      let status, headers, body = http_parts raw in
      Buffer.add_string out
        (Printf.sprintf "> GET %s\n< %d %s%s\n" target status
           (Option.value ~default:"-" (List.assoc_opt "content-type" headers))
           (if List.mem_assoc "etag" headers then " etag" else ""));
      Buffer.add_string out body)
    parity_http_script;
  Buffer.contents out

(* dune runtest runs with cwd _build/default/test, `dune exec
   test/test_server.exe` from the project root — accept either. *)
let parity_golden_path =
  if Sys.file_exists "data/wire_parity.golden" then "data/wire_parity.golden"
  else "test/data/wire_parity.golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_wire_parity () =
  let transcript = parity_transcript () in
  match Sys.getenv_opt "CRIMSON_PARITY_PROMOTE" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc transcript;
      close_out oc;
      Printf.printf "wrote %d bytes to %s\n%!" (String.length transcript) path
  | None ->
      let golden = read_file parity_golden_path in
      if transcript <> golden then begin
        (* Locate the first divergence for a readable failure. *)
        let n = min (String.length transcript) (String.length golden) in
        let rec first_diff i =
          if i >= n then n
          else if transcript.[i] <> golden.[i] then i
          else first_diff (i + 1)
        in
        let at = first_diff 0 in
        let ctx s =
          let lo = max 0 (at - 80) in
          let hi = min (String.length s) (at + 80) in
          String.sub s lo (hi - lo)
        in
        Alcotest.failf
          "wire replies diverge from golden at byte %d\n--- golden:   …%s…\n--- replayed: …%s…"
          at (ctx golden) (ctx transcript)
      end

(* -------------------------- Overview replies ------------------------ *)

(* The overview body as a list renderer writes it: Summary.overview's
   entries, one Json.Obj per cluster inside a Json.List, Json.to_string,
   then the LF. The oracle of the reply the gateway streams. *)
let oracle_overview stored ~depth =
  let num n = Json.Num (float_of_int n) in
  let layer, entries = Summary.overview stored ~depth in
  let cluster (e : Summary.entry) =
    Json.Obj
      [
        ("sub", num e.sub);
        ("root", num e.root);
        ("parent_sub", num e.parent_sub);
        ("name", Json.Str e.name);
        ("nodes", num e.nodes);
        ("leaves", num e.leaves);
        ("height", num e.height);
        ("blen", Json.Num e.blen);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("tree", Json.Str (Stored_tree.name stored));
         ("depth", num depth);
         ("layer", num layer);
         ("clusters", Json.List (List.map cluster entries));
       ])
  ^ "\n"

(* Names the encoder treats specially: quotes, backslashes, control
   bytes, bytes >= 0x80 and the empty name. *)
let awkward_names =
  [| ""; "\""; "\\"; "a\"b\\c"; "\000\001\031"; "\n\r\t"; "\127\128\255"; "caf\195\169"; "T0" |]

(* [n] nodes, each under the previous one or under a uniform earlier
   one, so depths range from logarithmic to linear; unnamed nodes,
   awkward names and random bytes; integral and fractional lengths. *)
let awkward_tree rng n =
  let b = Tree.Builder.create ~capacity:n () in
  let name () =
    match Prng.int rng 4 with
    | 0 -> None
    | 1 -> Some (String.init (Prng.int rng 6) (fun _ -> Char.chr (Prng.int rng 256)))
    | _ -> Some (Prng.choose rng awkward_names)
  in
  ignore (Tree.Builder.add_root ?name:(name ()) b);
  for i = 1 to n - 1 do
    let parent = if Prng.int rng 3 = 0 then i - 1 else Prng.int rng i in
    let branch_length =
      if Prng.bool rng then float_of_int (Prng.int rng 3) else Prng.float rng 2.0
    in
    ignore (Tree.Builder.add_child ?name:(name ()) ~branch_length b ~parent)
  done;
  Tree.Builder.finish b

let overview_body t s ~tree ~depth =
  let _, _, body =
    http_parts
      (fst
         (Worker_core.handle_http t s
            (http_get (Printf.sprintf "/v1/trees/%s/overview?depth=%d" tree depth))))
  in
  body

let prop_overview_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"overview body matches the list renderer"
    QCheck.(triple (int_bound 1_000_000) (int_range 1 300) (oneofl [ 2; 3; 8; 16 ]))
    (fun (seed, n, f) ->
      let repo = Repo.open_mem () in
      let stored =
        (Loader.load_tree ~f repo ~name:"t" (awkward_tree (Prng.create seed) n)).Loader.tree
      in
      let t, open_session = core repo in
      let s = open_session () in
      List.for_all
        (fun depth ->
          String.equal (overview_body t s ~tree:"t" ~depth) (oracle_overview stored ~depth))
        (List.init (Stored_tree.layer_count stored + 1) Fun.id))

(* Replies are rendered in buffers each domain keeps across requests.
   One core serves a large reply, a small one, then the large one
   again, over wire and over HTTP in turn: each comes out whole, with a
   Content-Length that is its body's, and a reply already handed over
   never changes. *)
let test_reply_buffer_reuse () =
  let repo = Repo.open_mem () in
  let big = Models.yule ~rng:(Prng.create 11) ~leaves:3000 () in
  let stored = (Loader.load_tree ~f:4 repo ~name:"big" big).Loader.tree in
  let t, open_session = core repo in
  let h = open_session () and w = open_session () in
  let get target =
    let raw, _ = Worker_core.handle_http t h (http_get target) in
    let _, headers, body = http_parts raw in
    check Alcotest.int
      (target ^ ": Content-Length is the body's")
      (String.length body)
      (int_of_string (List.assoc "content-length" headers));
    (raw, body)
  in
  let line text = body (Worker_core.handle_line t w text) in
  (* A whole reply parses to its end, or Json.parse refuses it. *)
  let whole reply =
    String.index reply '\n' = String.length reply - 1
    && Json.member "ok" (Json.parse reply) = Some (Json.Bool true)
  in
  let overview = "/v1/trees/big/overview?depth=64" in
  let expected = oracle_overview stored ~depth:64 in
  let info =
    Printf.sprintf
      "{\"ok\":true,\"id\":0,\"name\":\"big\",\"f\":4,\"layers\":%d,\"nodes\":%d,\"leaves\":3000}\n"
      (Stored_tree.layer_count stored) (Stored_tree.node_count stored)
  in
  check Alcotest.bool "USE" true (contains "\"ok\":true" (line "USE big"));
  let first_raw, first = get overview in
  check Alcotest.bool "the overview is large" true (String.length first > 100_000);
  check Alcotest.string "large overview" expected first;
  check Alcotest.string "small wire reply" "{\"ok\":true,\"seed\":5}\n" (line "SEED 5");
  check Alcotest.string "small HTTP reply" info (snd (get "/v1/trees/big"));
  let stats = line "STATS" in
  check Alcotest.bool "a large wire reply" true (String.length stats > 4096 && whole stats);
  check Alcotest.string "small wire reply again" "{\"ok\":true,\"seed\":6}\n" (line "SEED 6");
  check Alcotest.bool "large wire reply again" true (whole (line "STATS"));
  check Alcotest.string "small HTTP reply again" info (snd (get "/v1/trees/big"));
  check Alcotest.string "large overview again" expected (snd (get overview));
  check Alcotest.string "the first overview is unchanged" expected
    (let _, _, b = http_parts first_raw in
     b)

let () =
  (* The e2e tests fork servers and clients and write into sockets the
     peer may already have closed (e.g. an admission rejection); without
     this the test runner dies silently of SIGPIPE instead of seeing the
     EPIPE the client maps to Connection_error. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "crimson_server"
    [
      ( "wire",
        [
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
          Alcotest.test_case "parse_command" `Quick test_parse_command;
          Alcotest.test_case "line buffer framing" `Quick test_line_buffer;
          QCheck_alcotest.to_alcotest prop_wire_never_raises;
          QCheck_alcotest.to_alcotest prop_every_verb_parses;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sessions" `Quick test_engine_sessions;
          Alcotest.test_case "metrics and recording" `Quick test_engine_metrics;
          Alcotest.test_case "explain, profile and top" `Quick test_explain_profile_top;
          Alcotest.test_case "over-budget profile line" `Quick
            test_profile_over_budget_line;
          Alcotest.test_case "request timeout" `Quick test_request_timeout;
          Alcotest.test_case "collection verbs" `Quick test_collection_verbs;
          Alcotest.test_case "auto workers" `Quick test_auto_workers;
          Alcotest.test_case "top comparator is total" `Quick
            test_compare_rows_total;
          Alcotest.test_case "sleep verb gated" `Quick test_sleep_verb_gated;
          Alcotest.test_case "metrics route is the registry" `Quick
            test_metrics_route_is_registry;
        ] );
      ( "parity",
        [
          Alcotest.test_case "wire replay vs golden" `Quick test_wire_parity;
          QCheck_alcotest.to_alcotest prop_overview_matches_oracle;
          Alcotest.test_case "reply buffers reused" `Quick test_reply_buffer_reuse;
        ] );
      ( "conn",
        [ Alcotest.test_case "queued replies arrive in order" `Quick test_conn_flush_order ]
      );
      ( "listen",
        [
          Alcotest.test_case "live socket refused" `Quick test_listen_live_socket;
          Alcotest.test_case "stale socket rebound" `Quick test_listen_stale_socket;
          Alcotest.test_case "no temporary name left" `Quick test_listen_no_temp_left;
          Alcotest.test_case "regular file refused" `Quick test_listen_regular_file;
        ] );
      ( "repo",
        [
          Alcotest.test_case "open_dir typed errors" `Quick test_open_dir_errors;
          Alcotest.test_case "read-only mode" `Quick test_read_only_mode;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "concurrent smoke" `Slow test_e2e_smoke;
          Alcotest.test_case "multi-worker fleet" `Slow test_multiworker_e2e;
          Alcotest.test_case "observability fleet scrape" `Slow
            test_obs_fleet_e2e;
          Alcotest.test_case "healthz fault injection" `Slow
            test_healthz_fault_e2e;
          Alcotest.test_case "top lists a running session" `Slow
            test_top_lists_running_session;
          Alcotest.test_case "observability routes (1 worker)" `Slow
            test_obs_routes_single;
          Alcotest.test_case "observability routes (4 workers)" `Slow
            test_obs_routes_fleet;
        ] );
    ]
