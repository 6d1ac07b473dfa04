(* E17 — gateway overview cost: precomputed summary clusters vs tree
   size, plus the HTTP caching path.

   The design claim: `/v1/trees/:id/overview?depth=k` is one short
   scan over the summary table whose cost is the cluster count at
   the requested layer — f-fold fewer rows per resolution level
   dropped, and never the node pages — so it stays an order of
   magnitude under the full node scan as the tree grows. The
   in-process sweep measures `Summary.overview` latency and
   `Profile.measure` page touches at three tree sizes: after a handle's
   first overview has read the layer's runs, one pin per summary page.
   The end-to-end phase serves the largest tree over a real gateway
   socket and measures overview GET latency and the conditional-GET
   path: after the first 200, every revalidation must come back 304 Not
   Modified.

   Each /v1 route's allocation is measured in process on the largest
   tree, through [Worker_core.handle_http] after a warm-up: the mean
   minor, promoted and major words one request allocates on the calling
   domain ([Gc.counters]; its major words include the promoted ones),
   as [<kind>_words_r_<route>] for an overview at depth 1, a clade of 3
   species and a POST query of lca. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Summary = Crimson_core.Summary
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Http_client = Crimson_server.Http_client
module Http = Crimson_gateway.Http

let sizes = [ 500; 2000; 8000 ]
let reps = 40
let conditional_gets = 50

let overview_once stored = ignore (Summary.overview stored ~depth:1)

(* (route, decoded request, measured requests): warmed with 5 requests,
   then measured as a mean over [n]. *)
let routes =
  let request raw =
    match Http.feed (Http.create_decoder ()) raw with
    | Ok [ r ] -> r
    | _ -> failwith "E17: cannot decode a probe request"
  in
  let get path = request (Printf.sprintf "GET %s HTTP/1.1\r\nHost: crimson\r\n\r\n" path) in
  let lca = "lca(T17, T4711)" in
  [
    ("overview", get "/v1/trees/bench/overview?depth=1", 50);
    ("clade", get "/v1/trees/bench/clade?species=T11,T2024,T5003", 400);
    ( "lca",
      request
        (Printf.sprintf
           "POST /v1/trees/bench/query HTTP/1.1\r\nHost: crimson\r\nContent-Length: %d\r\n\r\n%s"
           (String.length lca) lca),
      400 );
  ]

let route_words repo =
  (* One session, admitted as the server's accept loop admits it. *)
  let sessions = Worker_core.create_sessions () in
  let core = Worker_core.create (Worker_core.local_ctx ~sessions repo) repo in
  Atomic.incr (Worker_core.admitted sessions);
  let s = Worker_core.accept_session core ~id:1 in
  let table =
    T.create
      ~columns:
        [ ("route", T.Left); ("minor words", T.Right); ("promoted", T.Right); ("major", T.Right) ]
  in
  let fields =
    List.concat_map
      (fun (route, r, n) ->
        let serve () =
          match Worker_core.handle_http core s r with
          | raw, _ when String.starts_with ~prefix:"HTTP/1.1 200" raw -> ()
          | raw, _ -> failwith ("E17: " ^ route ^ " answered " ^ String.sub raw 0 12)
        in
        for _ = 1 to 5 do
          serve ()
        done;
        let minor0, promoted0, major0 = Gc.counters () in
        for _ = 1 to n do
          serve ()
        done;
        let minor1, promoted1, major1 = Gc.counters () in
        let per x0 x1 = (x1 -. x0) /. float_of_int n in
        let words = [ per minor0 minor1; per promoted0 promoted1; per major0 major1 ] in
        T.add_row table (route :: List.map (Printf.sprintf "%.1f") words);
        List.map2
          (fun kind w -> (Printf.sprintf "%s_words_r_%s" kind route, Json.Num w))
          [ "minor"; "promoted"; "major" ] words)
      routes
  in
  Worker_core.close_session core s;
  (fields, T.render table)

let run () =
  section "E17" "gateway: overview latency vs tree size, 304 rate";
  with_scratch_dir (fun dir ->
      (* In-process sweep: overview cost as the tree grows 16x. *)
      let table =
        T.create
          ~columns:
            [
              ("leaves", T.Right);
              ("nodes", T.Right);
              ("clusters", T.Right);
              ("overview ms", T.Right);
              ("pages", T.Right);
            ]
      in
      let fields = ref [] and words = ref ([], "") in
      List.iter
        (fun leaves ->
          let repo_dir = Filename.concat dir (Printf.sprintf "r%d" leaves) in
          let repo = Repo.open_dir repo_dir in
          let stored =
            (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves)).Loader.tree
          in
          let _, clusters = Summary.overview stored ~depth:1 in
          let _, _, pages =
            Crimson_obs.Profile.measure (fun () -> overview_once stored)
          in
          let ms = time_mean ~reps (fun () -> overview_once stored) in
          T.add_row table
            [
              string_of_int leaves;
              string_of_int (Stored_tree.node_count stored);
              string_of_int (List.length clusters);
              Printf.sprintf "%.4f" ms;
              string_of_int pages;
            ];
          fields :=
            (Printf.sprintf "overview_pages_l%d" leaves, Json.Num (float_of_int pages))
            :: (Printf.sprintf "overview_ms_l%d" leaves, Json.Num ms)
            :: !fields;
          if leaves = List.fold_left max 0 sizes then words := route_words repo;
          Repo.close repo)
        sizes;
      print_string (T.render table);
      print_string (snd !words);
      let served_dir = Filename.concat dir (Printf.sprintf "r%d" (List.fold_left max 0 sizes)) in
      let sock = Filename.concat dir "e17.sock" in
      let hsock = Filename.concat dir "e17_http.sock" in
      let config =
        {
          (Serve_load.config ~workers:1) with
          Worker_core.http_listen = Some (Wire.Unix_path hsock);
        }
      in
      let http_ms, rate_304 =
        Serve_load.with_server ~tag:"E17" ~config ~repo_dir:served_dir sock @@ fun () ->
        let conn =
          match Http_client.connect (Wire.Unix_path hsock) with
          | Ok c -> c
          | Error e -> failwith ("E17 connect: " ^ e)
        in
        Fun.protect
          ~finally:(fun () -> Http_client.close conn)
          (fun () ->
            let path = "/v1/trees/bench/overview?depth=1" in
            let get ?headers () =
              match Http_client.request conn ?headers path with
              | Ok r -> r
              | Error e -> failwith ("E17 GET: " ^ e)
            in
            let first = get () in
            if first.Http_client.status <> 200 then
              failwith (Printf.sprintf "E17: HTTP %d" first.Http_client.status);
            let etag =
              match Http_client.header first "etag" with
              | Some t -> t
              | None -> failwith "E17: overview reply without ETag"
            in
            (* Uncached GET latency. *)
            let http_ms = time_mean ~reps:20 (fun () -> ignore (get ())) in
            (* Conditional GETs: every one must revalidate to 304. *)
            let not_modified = ref 0 in
            for _ = 1 to conditional_gets do
              let r = get ~headers:[ ("If-None-Match", etag) ] () in
              if r.Http_client.status = 304 then incr not_modified
            done;
            (http_ms, float_of_int !not_modified /. float_of_int conditional_gets))
      in
      note "gateway: overview GET %.3f ms, conditional 304 rate %.2f" http_ms
        rate_304;
      emit_bench ~experiment:"E17"
        ~fields:
          (List.rev !fields
          @ fst !words
          @ [
              ("http_overview_ms", Json.Num http_ms);
              ("etag_304_rate", Json.Num rate_304);
            ])
        ())
