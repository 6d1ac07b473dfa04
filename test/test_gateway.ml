(* Tests for the HTTP/JSON data-service gateway: request decoding,
   routing, entity tags, the request→bytes gateway core, and an
   end-to-end pass over real sockets — single worker and a fleet —
   including conditional GETs and ETag invalidation on mutation. *)

module Http = Crimson_gateway.Http
module Router = Crimson_gateway.Router
module Etag = Crimson_gateway.Etag
module Gateway = Crimson_gateway.Gateway
module Request = Crimson_gateway.Request
module Response = Crimson_gateway.Response
module Json = Crimson_obs.Json
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Http_client = Crimson_server.Http_client
module Client = Crimson_server.Client

let check = Alcotest.check

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------ Decoder ----------------------------- *)

let feed_ok dec s =
  match Http.feed dec s with
  | Ok reqs -> reqs
  | Error e -> Alcotest.failf "unexpected decode error: %s" e

let test_decoder_basic () =
  let dec = Http.create_decoder () in
  check Alcotest.int "no request yet" 0
    (List.length (feed_ok dec "GET /v1/trees?page=2&per_"));
  let reqs = feed_ok dec "page=5 HTTP/1.1\r\nHost: x\r\n\r\n" in
  match reqs with
  | [ r ] ->
      check Alcotest.string "method" "GET" r.Http.meth;
      check Alcotest.string "path" "/v1/trees" r.Http.path;
      check (Alcotest.option Alcotest.string) "page" (Some "2")
        (Http.query_param r "page");
      check (Alcotest.option Alcotest.string) "per_page" (Some "5")
        (Http.query_param r "per_page");
      check Alcotest.bool "1.1 keeps alive" true (Http.wants_keep_alive r)
  | reqs -> Alcotest.failf "expected one request, got %d" (List.length reqs)

let test_decoder_pipelining_and_body () =
  let dec = Http.create_decoder () in
  let reqs =
    feed_ok dec
      "POST /v1/trees/gold/query HTTP/1.1\r\nContent-Length: 11\r\n\r\n\
       lca(T1, T2)GET /v1/doc HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
  in
  match reqs with
  | [ a; b ] ->
      check Alcotest.string "body" "lca(T1, T2)" a.Http.body;
      check Alcotest.string "second path" "/v1/doc" b.Http.path;
      check Alcotest.bool "1.0 + explicit keep-alive" true
        (Http.wants_keep_alive b)
  | reqs -> Alcotest.failf "expected two requests, got %d" (List.length reqs)

let test_decoder_percent_and_limits () =
  check Alcotest.string "percent decode" "a b/c"
    (Http.percent_decode "a%20b%2Fc");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "query parse"
    [ ("species", "Bha,Lla"); ("format", "newick") ]
    (Http.parse_query "species=Bha%2CLla&format=newick");
  let dec = Http.create_decoder ~max_head:64 () in
  (match Http.feed dec ("GET /" ^ String.make 100 'x' ^ " HTTP/1.1\r\n\r\n") with
  | Error e -> check Alcotest.bool "head cap named" true (contains "head" e)
  | Ok _ -> Alcotest.fail "oversized head must fail");
  (* A poisoned decoder stays poisoned. *)
  (match Http.feed dec "GET / HTTP/1.1\r\n\r\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder must stay failed");
  let dec = Http.create_decoder ~max_body:8 () in
  match Http.feed dec "POST /v1/x HTTP/1.1\r\nContent-Length: 99\r\n\r\n" with
  | Error e -> check Alcotest.bool "body cap named" true (contains "body" e)
  | Ok _ -> Alcotest.fail "oversized body must fail"

(* ------------------------------ Router ------------------------------ *)

let http_req ?(meth = "GET") ?(body = "") target =
  let path, query =
    match String.index_opt target '?' with
    | Some i ->
        ( String.sub target 0 i,
          Http.parse_query
            (String.sub target (i + 1) (String.length target - i - 1)) )
    | None -> (target, [])
  in
  {
    Http.meth;
    target;
    path = Http.percent_decode path;
    query;
    headers = [];
    body;
    version = "HTTP/1.1";
  }

let route_ok target =
  match Router.route (http_req target) with
  | Ok (req, fmt) -> (req, fmt)
  | Error (code, msg) ->
      Alcotest.failf "route %s failed: %s %s" target
        (Response.code_string code)
        msg

let route_err ?meth target =
  match Router.route (http_req ?meth target) with
  | Ok _ -> Alcotest.failf "route %s should fail" target
  | Error (code, _) -> Response.code_string code

let test_router_routes () =
  check Alcotest.bool "doc" true (fst (route_ok "/v1/doc") = Request.Doc);
  check Alcotest.bool "trees defaults" true
    (fst (route_ok "/v1/trees")
    = Request.List_trees { page = 1; per_page = Router.default_per_page });
  check Alcotest.bool "trees paged" true
    (fst (route_ok "/v1/trees?page=3&per_page=2")
    = Request.List_trees { page = 3; per_page = 2 });
  check Alcotest.bool "tree info" true
    (fst (route_ok "/v1/trees/gold") = Request.Tree_info "gold");
  check Alcotest.bool "overview" true
    (fst (route_ok "/v1/trees/7/overview?depth=2")
    = Request.Overview { tree = "7"; depth = 2 });
  check Alcotest.bool "clade" true
    (fst (route_ok "/v1/trees/gold/clade?species=Bha,Lla")
    = Request.Clade { tree = "gold"; species = [ "Bha"; "Lla" ] });
  (match route_ok "/v1/trees/gold/clade?species=Bha&format=newick" with
  | _, Request.Newick -> ()
  | _, Request.Json -> Alcotest.fail "format=newick not negotiated");
  check Alcotest.bool "consensus" true
    (fst (route_ok "/v1/collections/boots/consensus?threshold=0.8")
    = Request.Consensus_view { coll = "boots"; threshold = Some 0.8 })

let test_router_errors () =
  check Alcotest.string "unknown route" "not_found" (route_err "/v2/trees");
  check Alcotest.string "bad page" "bad_request" (route_err "/v1/trees?page=0");
  check Alcotest.string "per_page over cap" "bad_request"
    (route_err
       (Printf.sprintf "/v1/trees?per_page=%d" (Router.max_per_page + 1)));
  check Alcotest.string "bad depth" "bad_request"
    (route_err "/v1/trees/gold/overview?depth=-1");
  check Alcotest.string "clade needs species" "bad_request"
    (route_err "/v1/trees/gold/clade");
  check Alcotest.string "wrong method" "method_not_allowed"
    (route_err ~meth:"POST" "/v1/trees");
  check Alcotest.string "query needs POST" "method_not_allowed"
    (route_err "/v1/trees/gold/query")

(* ------------------------------ Fuzzing ----------------------------- *)

(* Bytes a client may send: random ones, every prefix of a valid
   request, over-long heads, and valid requests pipelined with garbage.
   Decoding and routing never raise: a failure is the decoder's error
   string or a typed route error. *)
let http_valid =
  [
    "GET /v1/trees?page=2&per_page=5 HTTP/1.1\r\nHost: x\r\n\r\n";
    "POST /v1/trees/gold/query HTTP/1.1\r\nContent-Length: 11\r\n\r\nlca(T1, T2)";
    "GET /v1/doc HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    "GET /v1/trees/gold/clade?species=a%2Cb&format=newick HTTP/1.1\r\n\r\n";
    "DELETE /v1/collections/boot/consensus?threshold=x HTTP/1.1\r\n\r\n";
  ]

let http_input =
  QCheck.Gen.(
    let garbage = string_size ~gen:char (0 -- 120) in
    let prefix = oneofl http_valid >>= fun v -> map (String.sub v 0) (0 -- String.length v) in
    (* A well-framed request whose target is made of route words and
       random printable bytes, so that it reaches the router. *)
    let word =
      oneof
        [
          oneofl
            [
              "v1"; "trees"; "gold"; "7"; "overview"; "clade"; "query"; "doc";
              "collections"; "consensus"; "%2F"; "";
            ];
          string_size ~gen:printable (0 -- 8);
        ]
    in
    let framed =
      map3
        (fun meth path query ->
          Printf.sprintf "%s /%s?%s HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc" meth
            (String.concat "/" path) (String.concat "&" query))
        (oneofl [ "GET"; "POST"; "PUT"; "HEAD" ])
        (list_size (0 -- 5) word)
        (list_size (0 -- 3)
           (map2 (fun k v -> k ^ "=" ^ v)
              (oneofl [ "page"; "per_page"; "depth"; "species"; "threshold"; "format" ])
              (oneof [ word; map string_of_int (-3 -- 600) ])))
    in
    oneof
      [
        garbage;
        prefix;
        framed;
        map (fun n -> "GET /" ^ String.make n 'x' ^ " HTTP/1.1\r\n\r\n") (200 -- 400);
        map (String.concat "")
          (list_size (1 -- 4) (oneof [ oneofl http_valid; framed; prefix; garbage ]));
      ])

let prop_http_never_raises =
  QCheck.Test.make ~name:"decoder and router never raise" ~count:500
    (QCheck.make ~print:(fun cs -> String.escaped (String.concat "|" cs))
       QCheck.Gen.(list_size (1 -- 4) http_input))
    (fun chunks ->
      let dec = Http.create_decoder ~max_head:256 ~max_body:64 () in
      List.for_all
        (fun chunk ->
          match Http.feed dec chunk with
          | Error msg -> msg <> ""
          | Ok reqs ->
              List.for_all
                (fun r ->
                  match Router.route r with
                  | Ok _ -> true
                  | Error (code, msg) -> Response.code_string code <> "" && msg <> "")
                reqs)
        chunks)

(* Every route /v1/doc lists, sent with its documented method and a
   sample of each documented parameter, whatever its path segments are,
   routes to a request. *)
let prop_every_route_routes =
  let sample = function
    | "page" -> "2"
    | "per_page" -> "5"
    | "depth" -> "1"
    | "species" -> "a,b"
    | "threshold" -> "0.5"
    | "format" -> "newick"
    | p -> QCheck.Test.fail_reportf "no sample value for parameter %s" p
  in
  let routes () =
    match Router.doc_routes with
    | Json.List rs ->
        List.map
          (fun r ->
            match (Json.member "method" r, Json.member "path" r, Json.member "params" r) with
            | Some (Json.Str m), Some (Json.Str p), Some (Json.List ps) ->
                (m, p, List.map (function Json.Str s -> s | _ -> "") ps)
            | _ -> QCheck.Test.fail_report "malformed /v1/doc entry")
          rs
    | _ -> QCheck.Test.fail_report "/v1/doc is not a list"
  in
  QCheck.Test.make ~name:"every documented route routes" ~count:100
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'Z'; '7'; '_'; '-'; '.' ]) (1 -- 12)))
    (fun segment ->
      List.for_all
        (fun (meth, path, params) ->
          let path =
            String.split_on_char '/' path
            |> List.map (fun s -> if s <> "" && s.[0] = ':' then segment else s)
            |> String.concat "/"
          in
          let query = List.map (fun p -> p ^ "=" ^ sample p) params in
          let target = if query = [] then path else path ^ "?" ^ String.concat "&" query in
          match Router.route (http_req ~meth ~body:"lca(a, b)" target) with
          | Ok _ -> true
          | Error (code, msg) ->
              QCheck.Test.fail_reportf "%s %s: %s %s" meth target
                (Response.code_string code) msg)
        (routes ()))

(* ------------------------------- Etag ------------------------------- *)

let test_etag () =
  check Alcotest.string "query canonicalised" "a=1&b=2"
    (Etag.canonical_query [ ("b", "2"); ("a", "1") ]);
  let c1 =
    Etag.canonical (http_req "/v1/trees?per_page=2&page=1") ~format:Request.Json
  in
  let c2 =
    Etag.canonical (http_req "/v1/trees?page=1&per_page=2") ~format:Request.Json
  in
  check Alcotest.string "param order ignored" c1 c2;
  let tag = Etag.make ~validator:"tree:1:gold" ~resource:c1 in
  check Alcotest.bool "quoted" true
    (String.length tag > 2 && tag.[0] = '"' && tag.[String.length tag - 1] = '"');
  check Alcotest.bool "validator changes tag" true
    (tag <> Etag.make ~validator:"tree:1:gold2" ~resource:c1);
  check Alcotest.bool "star matches" true (Etag.matches ~header:"*" ~etag:tag);
  check Alcotest.bool "list matches" true
    (Etag.matches ~header:("\"zzz\", " ^ tag) ~etag:tag);
  check Alcotest.bool "weak matches" true
    (Etag.matches ~header:("W/" ^ tag) ~etag:tag);
  check Alcotest.bool "other does not" false
    (Etag.matches ~header:"\"zzz\"" ~etag:tag)

(* ------------------------------ Gateway ----------------------------- *)

(* A toy handler pair: one cacheable resource with a mutable validator,
   plus a newick-capable reply. *)
let toy_handlers validator_ref =
  {
    Gateway.dispatch =
      (fun req _fmt ->
        match req with
        | Request.Doc -> Response.ok [ ("routes", Json.List []) ]
        | Request.Tree_info _ ->
            Response.ok ~newick:"(a,b);" [ ("id", Json.Num 1.0) ]
        | _ -> Response.err Response.Not_found "toy");
    validator =
      (fun req ->
        match req with
        | Request.Tree_info _ -> Some !validator_ref
        | _ -> None);
  }

let status_of rendered =
  match String.split_on_char ' ' rendered with
  | _http :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparseable response: %s" rendered

let header_of rendered name =
  let lower = String.lowercase_ascii in
  String.split_on_char '\n' rendered
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when lower (String.sub line 0 i) = lower name ->
             Some
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let test_gateway_conditional () =
  let validator = ref "v1" in
  let h = toy_handlers validator in
  let first, close1 = Gateway.respond h (http_req "/v1/trees/gold") in
  check Alcotest.int "200" 200 (status_of first);
  check Alcotest.bool "keep-alive" false close1;
  let tag =
    match header_of first "etag" with
    | Some t -> t
    | None -> Alcotest.fail "no ETag on cacheable reply"
  in
  let again, _ =
    Gateway.respond h
      { (http_req "/v1/trees/gold") with Http.headers = [ ("if-none-match", tag) ] }
  in
  check Alcotest.int "304 on match" 304 (status_of again);
  check Alcotest.bool "304 has no body" true
    (match header_of again "content-length" with Some "0" -> true | _ -> false);
  (* Mutating the backing rows (new validator) revalidates to 200. *)
  validator := "v2";
  let after, _ =
    Gateway.respond h
      { (http_req "/v1/trees/gold") with Http.headers = [ ("if-none-match", tag) ] }
  in
  check Alcotest.int "200 after mutation" 200 (status_of after);
  check Alcotest.bool "fresh tag differs" true
    (header_of after "etag" <> Some tag)

let test_gateway_negotiation_and_errors () =
  let h = toy_handlers (ref "v") in
  let newick, _ =
    Gateway.respond h (http_req "/v1/trees/gold?format=newick")
  in
  check Alcotest.int "negotiated 200" 200 (status_of newick);
  (match header_of newick "content-type" with
  | Some ct -> check Alcotest.bool "newick is plain text" true (contains "text" ct)
  | None -> Alcotest.fail "no content type");
  check Alcotest.bool "newick body" true (contains "(a,b);" newick);
  let missing, _ = Gateway.respond h (http_req "/v1/nope") in
  check Alcotest.int "404" 404 (status_of missing);
  check Alcotest.bool "error body structured" true
    (contains "\"code\":\"not_found\"" missing);
  (match header_of missing "content-length" with
  | Some _ -> ()
  | None -> Alcotest.fail "error lacks Content-Length");
  let bad, _ = Gateway.respond h (http_req "/v1/trees?page=0") in
  check Alcotest.int "400" 400 (status_of bad);
  check Alcotest.bool "bad_request coded" true
    (contains "\"code\":\"bad_request\"" bad)

(* ----------------------------- End to end ---------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "crimson_gw" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let build_repo dir =
  let repo = Repo.open_dir dir in
  let t1 = Models.yule ~rng:(Prng.create 3) ~leaves:40 () in
  let t2 = Models.yule ~rng:(Prng.create 4) ~leaves:24 () in
  ignore (Loader.load_tree ~f:4 repo ~name:"gold" t1);
  ignore (Loader.load_tree ~f:4 repo ~name:"silver" t2);
  Repo.close repo

(* Fork a server over [dir]; returns (pid, wire socket, http address).
   The gateway listens on a Unix socket in [dir] unless [http] names
   another address. *)
let fork_server ?(workers = 1) ?(max_sessions = 16) ?http dir =
  let sock = Filename.concat dir "wire.sock" in
  let hsock = Filename.concat dir "http.sock" in
  let haddr = match http with Some a -> a | None -> Wire.Unix_path hsock in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        Crimson_obs.Trace.child_reset ();
        Crimson_obs.Events.child_reset ();
        let repo = Repo.open_dir ~create:false dir in
        let config =
          {
            Worker_core.default_config with
            Worker_core.workers;
            max_sessions;
            request_timeout = 10.0;
            http_listen = Some haddr;
          }
        in
        Fun.protect
          ~finally:(fun () -> Repo.close repo)
          (fun () -> Server.run ~config repo (Wire.Unix_path sock));
        Unix._exit 0
    | pid -> pid
  in
  (* The gateway binds before the wire socket accepts, so a wire probe
     covers a TCP gateway too. Both probes are closed at once; a test
     that fills the admission limit waits for their slots to return. *)
  let deadline = Unix.gettimeofday () +. 15.0 in
  Unix.close (Helpers.connect_when_listening ~deadline sock);
  if http = None then begin
    Unix.close (Helpers.connect_when_listening ~deadline hsock);
    check Alcotest.bool "gateway socket appears" true (Sys.file_exists hsock)
  end;
  (pid, Wire.Unix_path sock, haddr)

(* A loopback port that was free a moment ago, for a TCP listener. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ()

let get_ok conn path =
  match Http_client.request conn path with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" path e

(* The catalog pages, stitched back together page by page. *)
let paged_names conn =
  let rec go page acc =
    let r = get_ok conn (Printf.sprintf "/v1/trees?per_page=1&page=%d" page) in
    check Alcotest.int "paged 200" 200 r.Http_client.status;
    let j = Json.parse r.Http_client.body in
    let names =
      match Json.member "trees" j with
      | Some (Json.List ts) ->
          List.filter_map
            (fun t ->
              match Json.member "name" t with
              | Some (Json.Str n) -> Some n
              | _ -> None)
            ts
      | _ -> []
    in
    match names with [] -> List.rev acc | ns -> go (page + 1) (List.rev_append ns acc)
  in
  go 1 []

let e2e_exchange ~workers () =
  with_temp_dir (fun dir ->
      build_repo dir;
      let pid, _wire, haddr = fork_server ~workers dir in
      Fun.protect
        ~finally:(fun () -> stop_server pid)
        (fun () ->
          let conn =
            match Http_client.connect haddr with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" e
          in
          Fun.protect
            ~finally:(fun () -> Http_client.close conn)
            (fun () ->
              (* Several requests ride one keep-alive connection. *)
              check
                (Alcotest.list Alcotest.string)
                "paginated catalog" [ "gold"; "silver" ] (paged_names conn);
              let info = get_ok conn "/v1/trees/gold" in
              check Alcotest.int "info 200" 200 info.Http_client.status;
              let tag =
                match Http_client.header info "etag" with
                | Some t -> t
                | None -> Alcotest.fail "no ETag"
              in
              (* Conditional revalidation: the second GET is a 304 with an
                 empty body, on the same connection. *)
              let cond =
                match
                  Http_client.request conn
                    ~headers:[ ("If-None-Match", tag) ]
                    "/v1/trees/gold"
                with
                | Ok r -> r
                | Error e -> Alcotest.failf "conditional GET: %s" e
              in
              check Alcotest.int "304" 304 cond.Http_client.status;
              check Alcotest.string "empty body" "" cond.Http_client.body;
              (* Overview is served from the summary rows. *)
              let ov = get_ok conn "/v1/trees/gold/overview?depth=1" in
              check Alcotest.int "overview 200" 200 ov.Http_client.status;
              check Alcotest.bool "overview has clusters" true
                (contains "\"clusters\"" ov.Http_client.body);
              (* Newick negotiation end to end. *)
              let clade =
                get_ok conn "/v1/trees/gold/clade?species=T1,T3&format=newick"
              in
              check Alcotest.int "clade 200" 200 clade.Http_client.status;
              check Alcotest.bool "bare newick" true
                (String.length clade.Http_client.body > 0
                && clade.Http_client.body.[0] = '(');
              (* POST with a body through the same dispatch. *)
              let q =
                match
                  Http_client.request conn ~meth:"POST" ~body:"info()"
                    "/v1/trees/gold/query"
                with
                | Ok r -> r
                | Error e -> Alcotest.failf "POST query: %s" e
              in
              check Alcotest.int "query 200" 200 q.Http_client.status;
              check Alcotest.bool "query ok" true
                (contains "\"ok\":true" q.Http_client.body);
              (* Unknown tree: structured 404, connection stays usable. *)
              let missing = get_ok conn "/v1/trees/nope" in
              check Alcotest.int "unknown tree 404" 404
                missing.Http_client.status;
              check Alcotest.bool "coded" true
                (contains "\"code\":\"unknown_tree\"" missing.Http_client.body);
              check Alcotest.int "alive after error" 200
                (get_ok conn "/v1/doc").Http_client.status);
          (* Same listing through a fresh one-shot connection. *)
          match Http_client.get haddr "/v1/trees" with
          | Ok r -> check Alcotest.int "fresh connection" 200 r.Http_client.status
          | Error e -> Alcotest.failf "one-shot GET: %s" e))

let test_e2e_single () = e2e_exchange ~workers:1 ()
let test_e2e_fleet () = e2e_exchange ~workers:4 ()

(* Catalog replies must not depend on the fleet size. *)
let test_e2e_stable_across_workers () =
  let capture workers =
    with_temp_dir (fun dir ->
        build_repo dir;
        let pid, _wire, haddr = fork_server ~workers dir in
        Fun.protect
          ~finally:(fun () -> stop_server pid)
          (fun () ->
            match Http_client.get haddr "/v1/trees?per_page=10" with
            | Ok r -> r.Http_client.body
            | Error e -> Alcotest.failf "GET: %s" e))
  in
  check Alcotest.string "workers 1 vs 4 identical" (capture 1) (capture 4)

(* A CLI-style mutation (loading a tree between server runs) must
   invalidate the catalog and tree ETags through the validator. *)
let test_e2e_mutation_invalidates () =
  with_temp_dir (fun dir ->
      build_repo dir;
      let fetch_tags () =
        let pid, _wire, haddr = fork_server dir in
        Fun.protect
          ~finally:(fun () -> stop_server pid)
          (fun () ->
            let tag path =
              match Http_client.get haddr path with
              | Ok r -> (
                  match Http_client.header r "etag" with
                  | Some t -> t
                  | None -> Alcotest.failf "no ETag on %s" path)
              | Error e -> Alcotest.failf "GET %s: %s" path e
            in
            (tag "/v1/trees", tag "/v1/trees/gold"))
      in
      let catalog_before, gold_before = fetch_tags () in
      (* Restarting without mutating must keep both tags stable. *)
      let catalog_same, gold_same = fetch_tags () in
      check Alcotest.string "catalog tag stable" catalog_before catalog_same;
      check Alcotest.string "tree tag stable" gold_before gold_same;
      (* Mutate through the loader (what `crimson load` runs). *)
      let repo = Repo.open_dir ~create:false dir in
      let t = Models.yule ~rng:(Prng.create 9) ~leaves:16 () in
      ignore (Loader.load_tree ~f:4 repo ~name:"bronze" t);
      Repo.close repo;
      let catalog_after, gold_after = fetch_tags () in
      check Alcotest.bool "catalog tag invalidated" true
        (catalog_after <> catalog_before);
      check Alcotest.string "untouched tree keeps its tag" gold_before
        gold_after)

(* One server life over [repo]: a fresh core, as a (re)start builds
   it, answering GETs, with an If-None-Match when [etag] is given, as
   (status, ETag, body). *)
let serving repo =
  let core = Worker_core.create (Worker_core.local_ctx repo) repo in
  let s = Worker_core.accept_session core ~id:1 in
  fun ?etag target ->
    let r = http_req target in
    let r =
      match etag with
      | Some e -> { r with Http.headers = [ ("if-none-match", e) ] }
      | None -> r
    in
    let raw, _ = Worker_core.handle_http core s r in
    let rec body_at i =
      if String.sub raw i 4 = "\r\n\r\n" then i + 4 else body_at (i + 1)
    in
    let b = body_at 0 in
    (status_of raw, header_of raw "etag", String.sub raw b (String.length raw - b))

(* A tree deleted and loaded again gets the same id (the largest live id
   + 1). Every validator must still change with it: the overview's when
   another tree takes the name, the listing's when the same tree comes
   back at another fan-out. A restart over the unchanged repository
   must keep every tag. *)
let test_validators_cover_reloads () =
  with_temp_dir (fun dir ->
      let yule seed = Models.yule ~rng:(Prng.create seed) ~leaves:200 () in
      let reload repo ~f tree =
        Loader.delete_tree repo (Stored_tree.open_name repo "gold");
        ignore (Loader.load_tree ~f repo ~name:"gold" tree)
      in
      let overview = "/v1/trees/gold/overview?depth=1" in
      let repo = Repo.open_dir dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"gold" (yule 1));
      let _, old_tag, old_body = serving repo overview in
      check Alcotest.bool "overview tagged" true (old_tag <> None);
      reload repo ~f:8 (yule 2);
      let get = serving repo in
      let status, _, body = get ?etag:old_tag overview in
      check Alcotest.int "another tree, same id and name: 200" 200 status;
      check Alcotest.bool "with its own overview" true (body <> old_body);
      let _, list_tag, list_body = get "/v1/trees" in
      check Alcotest.bool "listing tagged" true (list_tag <> None);
      reload repo ~f:4 (yule 2);
      let get = serving repo in
      let status, _, body = get ?etag:list_tag "/v1/trees" in
      check Alcotest.int "same tree at f = 4: listing 200" 200 status;
      check Alcotest.bool "listing shows the new f" true
        (body <> list_body && contains "\"f\":4" body);
      let tags =
        List.map
          (fun path ->
            let _, tag, _ = get path in
            (path, tag))
          [ overview; "/v1/trees"; "/v1/trees/gold" ]
      in
      Repo.close repo;
      let repo = Repo.open_dir ~create:false dir in
      let get = serving repo in
      List.iter
        (fun (path, etag) ->
          let status, _, _ = get ?etag path in
          check Alcotest.int (path ^ " revalidates after a restart") 304 status)
        tags;
      Repo.close repo)

(* Admission at the HTTP front door: with the only session slot held
   over the wire, a GET must read a well-formed 503 carrying the
   structured session_limit error, not a reset connection. Over TCP a
   server that closes with the request still unread resets the
   connection, and the reset can destroy the reply. *)
let over_limit_503 ~workers () =
  with_temp_dir (fun dir ->
      build_repo dir;
      let http = Wire.Tcp ("127.0.0.1", free_port ()) in
      let pid, wire, haddr = fork_server ~workers ~max_sessions:1 ~http dir in
      Fun.protect
        ~finally:(fun () -> stop_server pid)
        (fun () ->
          (* The readiness probes' slot is released asynchronously, so
             retry until the held session is admitted. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec hold () =
            let c = Client.connect wire in
            match Client.request c "HELLO" with
            | reply when Client.ok reply -> c
            | _ | (exception Client.Connection_error _) ->
                Client.close c;
                if Unix.gettimeofday () >= deadline then
                  Alcotest.fail "no admission slot freed within 5s";
                ignore (Unix.select [] [] [] 0.05);
                hold ()
          in
          let held = hold () in
          Fun.protect
            ~finally:(fun () -> Client.close held)
            (fun () ->
              (match Http_client.get haddr "/v1/trees" with
              | Ok r ->
                  check Alcotest.int "over-limit status" 503
                    r.Http_client.status;
                  check Alcotest.bool "session_limit code" true
                    (contains "\"code\":\"session_limit\"" r.Http_client.body)
              | Error e -> Alcotest.failf "over-limit GET failed: %s" e);
              (* Reading on to the end must find a clean close. *)
              let port =
                match haddr with Wire.Tcp (_, p) -> p | Wire.Unix_path _ -> 0
              in
              match
                Helpers.raw_exchange
                  (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
                  "GET /v1/trees HTTP/1.1\r\nHost: crimson\r\n\r\n"
              with
              | Ok raw ->
                  check Alcotest.bool "503 then a clean close" true
                    (contains " 503 " raw && contains "session_limit" raw)
              | Error e -> Alcotest.failf "over-limit connection dropped: %s" e)))

let test_e2e_over_limit_single () = over_limit_503 ~workers:1 ()
let test_e2e_over_limit_fleet () = over_limit_503 ~workers:4 ()

let () =
  Alcotest.run "crimson_gateway"
    [
      ( "http",
        [
          Alcotest.test_case "decoder basics" `Quick test_decoder_basic;
          Alcotest.test_case "pipelining and bodies" `Quick
            test_decoder_pipelining_and_body;
          Alcotest.test_case "percent decoding and caps" `Quick
            test_decoder_percent_and_limits;
        ] );
      ( "router",
        [
          Alcotest.test_case "routes" `Quick test_router_routes;
          Alcotest.test_case "errors" `Quick test_router_errors;
          QCheck_alcotest.to_alcotest prop_http_never_raises;
          QCheck_alcotest.to_alcotest prop_every_route_routes;
        ] );
      ("etag", [ Alcotest.test_case "tags and matching" `Quick test_etag ]);
      ( "gateway",
        [
          Alcotest.test_case "conditional GETs" `Quick test_gateway_conditional;
          Alcotest.test_case "negotiation and errors" `Quick
            test_gateway_negotiation_and_errors;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "single worker" `Quick test_e2e_single;
          Alcotest.test_case "worker fleet" `Quick test_e2e_fleet;
          Alcotest.test_case "stable across fleet sizes" `Quick
            test_e2e_stable_across_workers;
          Alcotest.test_case "mutation invalidates etags" `Quick
            test_e2e_mutation_invalidates;
          Alcotest.test_case "over-limit GET gets 503 (1 worker)" `Quick
            test_e2e_over_limit_single;
          Alcotest.test_case "over-limit GET gets 503 (4 workers)" `Quick
            test_e2e_over_limit_fleet;
          Alcotest.test_case "validators cover reloads" `Quick
            test_validators_cover_reloads;
        ] );
    ]
