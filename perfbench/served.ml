(* served_mix — the resident query service as its callers see it: a
   forked single-worker Server.run over an on-disk Yule tree that fits
   the default buffer pool, warmed before timing, driven by one client
   process with two closed-loop keep-alive connections (one thread
   each): a wire QUERY mix and an HTTP mix of overview, clade, POST
   query and conditional GETs. The codecs, dispatch, Query_lang and
   Summary do the work; the pager is all hits and projection nearly
   absent.

   Every reply is checked against the library's answer to the same
   seeded script, computed on the loaded repository before the server
   starts. The traced run records one client span per request on
   alternate script cycles (the other cycles give the untraced
   latencies it is compared with), reads the server's own counters and
   request histogram through STATS, reads each request's server time
   per transport from the server's trace sink, times
   Http.feed/Http.render on captured bytes, and replays the wire script
   through Query_lang.run on a read-only handle in this process.

   A third domain times the host-speed kernel (Perf_util.Host) every
   50 ms while the clients run; set-up times are scaled by kernel
   timings taken around each of their parts. The JSON result carries
   latencies and rates scaled to the reference speed, and the raw ones
   are printed beside them. *)

open Perf_util
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Query_lang = Crimson_core.Query_lang
module Summary = Crimson_core.Summary
module Clade = Crimson_core.Clade
module Projection = Crimson_core.Projection
module Newick = Crimson_formats.Newick
module Wire = Crimson_server.Wire
module Engine = Crimson_server.Engine
module Server = Crimson_server.Server
module Client = Crimson_server.Client
module Http_client = Crimson_server.Http_client
module Http = Crimson_gateway.Http

type shape = {
  leaves : int;
  wire_len : int;  (** Queries per wire script cycle. *)
  http_len : int;  (** Requests per HTTP script cycle. *)
  setup_reps : int;
}

let shape = function
  | Full -> { leaves = 20_000; wire_len = 256; http_len = 128; setup_reps = 5 }
  | Tiny -> { leaves = 300; wire_len = 16; http_len = 8; setup_reps = 2 }

(* A wire request line and the "result" its reply must carry ([None]:
   only "ok"). *)
type wire_item = { line : string; result : string option }

type http_expect =
  | Overview of (int * int * int) list  (** (sub, nodes, leaves) per cluster. *)
  | Clade_of of int * int * string  (** root, leaves, Newick. *)
  | Result of string
  | Not_modified

type http_item = {
  meth : string;
  path : string;
  body : string option;
  expect : http_expect;
  mutable etag : string option;  (** Validator for conditional items, from the warm-up. *)
}

let tree_name = "gold"

let result_of repo stored ?(rng = Prng.create 0) text =
  match Query_lang.run ~rng ~record:false repo stored text with
  | Ok o -> o.Query_lang.result
  | Error e -> failwith (Printf.sprintf "reference query %S failed: %s" text e)

let names k rng n =
  Prng.sample_without_replacement rng ~k ~n |> Array.to_list |> List.map (Printf.sprintf "T%d")

(* The seeded scripts with their library answers. *)
let scripts sh repo stored seed =
  let rng = Prng.create (seed + 17) in
  let n = Stored_tree.leaf_count stored in
  let q text = { line = "QUERY " ^ text; result = Some (result_of repo stored text) } in
  let wire =
    List.concat
      (List.init sh.wire_len (fun i ->
           match i mod 8 with
           | 0 | 1 -> (
               match names 2 rng n with
               | [ a; b ] -> [ q (Printf.sprintf "lca(%s, %s)" a b) ]
               | _ -> assert false)
           | 2 | 3 -> (
               match names 2 rng n with
               | [ a; b ] -> [ q (Printf.sprintf "distance(%s, %s)" a b) ]
               | _ -> assert false)
           | 4 -> [ q (Printf.sprintf "clade(%s)" (String.concat ", " (names 3 rng n))) ]
           | 5 ->
               let s = Prng.int rng 1_000_000 in
               [
                 { line = Printf.sprintf "SEED %d" s; result = None };
                 {
                   line = "QUERY sample(8)";
                   result = Some (result_of repo stored ~rng:(Prng.create s) "sample(8)");
                 };
               ]
           | 6 -> [ q (Printf.sprintf "project(%s)" (String.concat ", " (names 16 rng n))) ]
           | _ ->
               let ids =
                 match Stored_tree.leaf_ids_by_names stored (names 16 rng n) with
                 | Ok ids -> ids
                 | Error e -> failwith e
               in
               let pattern =
                 Newick.to_string ~include_lengths:false (Projection.project stored ids)
               in
               [ q (Printf.sprintf "match('%s')" pattern) ]))
  in
  let overview_path = Printf.sprintf "/v1/trees/%s/overview?depth=1" tree_name in
  let overview =
    let _, entries = Summary.overview stored ~depth:1 in
    Overview (List.map (fun (e : Summary.entry) -> (e.Summary.sub, e.nodes, e.leaves)) entries)
  in
  let get path expect = { meth = "GET"; path; body = None; expect; etag = None } in
  let clade () =
    let species = names 3 rng n in
    let ids =
      match Stored_tree.leaf_ids_by_names stored species with Ok ids -> ids | Error e -> failwith e
    in
    get
      (Printf.sprintf "/v1/trees/%s/clade?species=%s" tree_name (String.concat "," species))
      (Clade_of
         ( Clade.root_of stored ids,
           Clade.size stored ids,
           Newick.to_string (Projection.project stored ids) ))
  in
  let http = ref [] in
  let last_get = ref (get overview_path overview) in
  for i = 0 to sh.http_len - 1 do
    let item =
      match i mod 8 with
      | 0 -> get overview_path overview
      | 1 | 2 -> clade ()
      | 3 | 4 -> (
          match names 2 rng n with
          | [ a; b ] ->
              let text =
                if i mod 8 = 3 then Printf.sprintf "lca(%s, %s)" a b
                else Printf.sprintf "distance(%s, %s)" a b
              in
              {
                meth = "POST";
                path = Printf.sprintf "/v1/trees/%s/query" tree_name;
                body = Some text;
                expect = Result (result_of repo stored text);
                etag = None;
              }
          | _ -> assert false)
      | _ -> { (!last_get) with expect = Not_modified; etag = None }
    in
    (match item.expect with Overview _ | Clade_of _ -> last_get := item | _ -> ());
    http := item :: !http
  done;
  (Array.of_list wire, Array.of_list (List.rev !http))

(* ------------------------------ Checks ------------------------------ *)

let json_of s = try Some (Json.parse (String.trim s)) with Json.Parse_error _ -> None
let num = function Some (Json.Num x) -> Some (int_of_float x) | _ -> None

let wire_ok item = function
  | None -> false
  | Some line -> (
      match json_of line with
      | None -> false
      | Some j -> (
          Json.member "ok" j = Some (Json.Bool true)
          &&
          match item.result with
          | None -> true
          | Some r -> Json.member "result" j = Some (Json.Str r)))

let http_ok item (r : Http_client.response) =
  match item.expect with
  | Not_modified -> r.Http_client.status = 304
  | expect -> (
      r.Http_client.status = 200
      &&
      match json_of r.Http_client.body with
      | None -> false
      | Some j -> (
          match expect with
          | Overview clusters -> (
              match Json.member "clusters" j with
              | Some (Json.List cs) ->
                  List.map
                    (fun c ->
                      ( num (Json.member "sub" c),
                        num (Json.member "nodes" c),
                        num (Json.member "leaves" c) ))
                    cs
                  = List.map (fun (s, n, l) -> (Some s, Some n, Some l)) clusters
              | _ -> false)
          | Clade_of (root, leaves, newick) ->
              num (Json.member "root" j) = Some root
              && num (Json.member "leaves" j) = Some leaves
              && Json.member "newick" j = Some (Json.Str newick)
          | Result res -> Json.member "result" j = Some (Json.Str res)
          | Not_modified -> false))

(* The request bytes Http_client.request sends for an item. *)
let request_bytes item =
  let headers = match item.etag with Some e -> [ ("If-None-Match", e) ] | None -> [] in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\nHost: crimson\r\n" item.meth item.path);
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
  (match item.body with
  | Some p -> Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n" (String.length p))
  | None -> ());
  Buffer.add_string b "\r\n";
  Option.iter (Buffer.add_string b) item.body;
  Buffer.contents b

let send_http conn item =
  let headers =
    match (item.expect, item.etag) with Not_modified, Some e -> [ ("If-None-Match", e) ] | _ -> []
  in
  Http_client.request conn ~meth:item.meth ~headers ?body:item.body item.path

(* ------------------------------ Server ------------------------------ *)

(* The server process body: `crimson_perf --serve DIR SOCK HTTP_SOCK
   [TRACE_OUT]`. It runs as a fresh process image, so its peak RSS is
   the server's own, not the benchmark's inherited heap. With TRACE_OUT
   the server writes one JSONL record per dispatched request there. *)
let serve ~dir ~sock ~hsock ~trace_out =
  let repo = Repo.open_dir ~create:false dir in
  let config =
    {
      Engine.default_config with
      Engine.max_sessions = 8;
      request_timeout = 30.0;
      http_listen = Some (Wire.Unix_path hsock);
      trace_out;
      trace_max_bytes = 1 lsl 30;
    }
  in
  Fun.protect
    ~finally:(fun () -> Repo.close repo)
    (fun () -> Server.run ~config repo (Wire.Unix_path sock))

let spawn_server ~dir ~sock ~hsock ~trace_out =
  let exe = Sys.executable_name in
  let args = Array.of_list ([ exe; "--serve"; dir; sock; hsock ] @ Option.to_list trace_out) in
  match Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr with
  | pid ->
      let deadline = now () +. 60.0 in
      while
        (not (Sys.file_exists sock && Sys.file_exists hsock))
        && now () < deadline
        && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0
      do
        Unix.sleepf 0.01
      done;
      if not (Sys.file_exists sock && Sys.file_exists hsock) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        failwith "served_mix: server never became ready"
      end;
      pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

type conns = { wire : Client.t; http : Http_client.t }

(* A socket file appears at bind, before the server listens: retry
   refused connects for a while. *)
let rec retry ~until f =
  match f () with
  | Ok x -> x
  | Error e when now () > until -> failwith ("served_mix: connect: " ^ e)
  | Error _ ->
      Unix.sleepf 0.02;
      retry ~until f

let connect ~sock ~hsock =
  let until = now () +. 10.0 in
  let wire =
    retry ~until (fun () ->
        try Ok (Client.connect (Wire.Unix_path sock))
        with Client.Connection_error e -> Error e)
  in
  match retry ~until (fun () -> Http_client.connect ~timeout:30.0 (Wire.Unix_path hsock)) with
  | http -> { wire; http }
  | exception e ->
      Client.close wire;
      raise e

let close_conns c =
  Client.close c.wire;
  Http_client.close c.http

(* One pass over both scripts: fills the caches and captures each
   conditional item's validator and each response for the codec timing. *)
let warm c wire http =
  let bad = ref 0 in
  if not (Client.ok (Client.request c.wire "HELLO")) then incr bad;
  if not (Client.ok (Client.request c.wire ("USE " ^ tree_name))) then incr bad;
  Array.iter (fun it -> if not (wire_ok it (Client.request_line c.wire it.line)) then incr bad) wire;
  let responses =
    Array.map
      (fun it ->
        (match it.expect with
        | Not_modified -> (
            match Http_client.request c.http it.path with
            | Ok r -> it.etag <- Http_client.header r "etag"
            | Error _ -> incr bad)
        | _ -> ());
        match send_http c.http it with
        | Ok r ->
            if not (http_ok it r) then incr bad;
            Some r
        | Error _ ->
            incr bad;
            None)
      http
  in
  (!bad, responses)

(* ------------------------------ Clients ----------------------------- *)

type acc = {
  lat : Samples.t;  (** Untraced request latencies, ms. *)
  at : Samples.t;  (** When each of them ended (Unix time). *)
  dispatched : Samples.t;
      (** The untraced latencies of requests the server dispatches (not
          the 304s the gateway answers first), ms. *)
  traced : Samples.t;
  mutable attempted : int;
  mutable failed : int;
}

let new_acc () =
  {
    lat = Samples.create ();
    at = Samples.create ();
    dispatched = Samples.create ();
    traced = Samples.create ();
    attempted = 0;
    failed = 0;
  }

(* A closed loop over a script until the deadline; with tracing, odd
   cycles record a span per request. *)
let loop ~name ~trace ~deadline ~len ~send ~dispatched acc =
  let i = ref 0 in
  while now () < deadline do
    let traced = trace && !i / len mod 2 = 1 in
    let t0 = now () in
    let ok = try send (!i mod len) with _ -> false in
    let t1 = now () in
    let ms = 1000.0 *. (t1 -. t0) in
    if traced then begin
      Spans.record ~name ~op:!i ~start:t0 ~stop:t1;
      Samples.add acc.traced ms
    end
    else begin
      Samples.add acc.lat ms;
      Samples.add acc.at t1;
      if dispatched (!i mod len) then Samples.add acc.dispatched ms
    end;
    acc.attempted <- acc.attempted + 1;
    if not ok then acc.failed <- acc.failed + 1;
    incr i
  done

let stats_counters c =
  match Json.member "metrics" (Client.request c.wire "STATS") with
  | Some m -> m
  | None -> failwith "served_mix: STATS reply without metrics"

let counter m name =
  match Option.bind (Json.member "counters" m) (Json.member name) with
  | Some (Json.Num x) -> int_of_float x
  | _ -> 0

let histogram m name field =
  match
    Option.bind (Option.bind (Json.member "histograms" m) (Json.member name)) (Json.member field)
  with
  | Some (Json.Num x) -> x
  | _ -> 0.0

let gauge m name =
  match Option.bind (Json.member "gauges" m) (Json.member name) with
  | Some (Json.Num x) -> x
  | _ -> 0.0

(* Server-side milliseconds per transport, from the trace sink's
   records that started in [t0, t1]: wire lines verbatim, gateway
   requests as "GET /v1/..." or "POST /v1/...". *)
let server_times path ~t0 ~t1 =
  let wire = Samples.create () and http = Samples.create () in
  let ic = open_in path in
  let field j path =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
    | Some (Json.Num x) -> Some x
    | _ -> None
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          match json_of (input_line ic) with
          | None -> ()
          | Some j -> (
              let line =
                match Option.bind (Json.member "meta" j) (Json.member "line") with
                | Some (Json.Str l) -> l
                | _ -> ""
              in
              let pre p = String.starts_with ~prefix:p line in
              match (field j [ "started_at" ], field j [ "root"; "elapsed_ms" ]) with
              | Some t, Some ms when t >= t0 && t <= t1 ->
                  if pre "GET " || pre "POST " then Samples.add http ms
                  else if pre "QUERY " || pre "SEED " then Samples.add wire ms
              | _ -> ())
        done
      with End_of_file -> ());
  (wire, http)

(* Mean microseconds per call of [f i] over [n] calls cycling i. *)
let us_per_call n k f =
  let t0 = now () in
  for i = 0 to n - 1 do
    f (i mod k)
  done;
  1e6 *. (now () -. t0) /. float_of_int n

type setup = {
  dir : string;
  sock : string;
  hsock : string;
  pid : int;
  trace_out : string option;
  conns : conns;
  setup_s : float;  (** Scaled to the reference host speed. *)
  load_nodes_per_s : float;  (** Likewise. *)
  nodes : int;
  disk_bytes : int;
  warm_failed : int;
  responses : Http_client.response option array;
}

let run cfg =
  let sh = shape cfg.size in
  let script = ref None in
  let setup_once r =
    let dir = Filename.concat cfg.work (Printf.sprintf "served-%d" r) in
    let sock = Filename.concat cfg.work (Printf.sprintf "w%d.sock" r) in
    let hsock = Filename.concat cfg.work (Printf.sprintf "h%d.sock" r) in
    let trace_out =
      if cfg.trace then Some (Filename.concat cfg.work (Printf.sprintf "server%d.jsonl" r))
      else None
    in
    (* The served repository is fixed; the seed picks the scripts. *)
    let tree, gen_s =
      Host.timed_scaled (fun () ->
          let rng = Prng.create 2006 in
          Ops.normalize_height (Models.yule ~rng ~leaves:sh.leaves ()) ~target:1.0)
    in
    let repo = Repo.open_dir dir in
    let report, load_s =
      Host.timed_scaled (fun () -> Loader.load_tree ~f:8 repo ~name:tree_name tree)
    in
    (* The reference answers are computed once, outside set-up time. *)
    if !script = None then script := Some (scripts sh repo report.Loader.tree cfg.seed);
    Repo.close repo;
    let disk_bytes = dir_bytes dir in
    let wire, http = Option.get !script in
    let (pid, conns, (warm_failed, responses)), boot_s =
      Host.timed_scaled (fun () ->
          let pid = spawn_server ~dir ~sock ~hsock ~trace_out in
          let conns = try connect ~sock ~hsock with e -> stop_server pid; raise e in
          (pid, conns, warm conns wire http))
    in
    let nodes = Tree.node_count tree in
    {
      dir;
      sock;
      hsock;
      pid;
      trace_out;
      conns;
      setup_s = gen_s +. load_s +. boot_s;
      load_nodes_per_s = float_of_int nodes /. load_s;
      nodes;
      disk_bytes;
      warm_failed;
      responses;
    }
  in
  let teardown s =
    close_conns s.conns;
    stop_server s.pid
  in
  let setups =
    List.init sh.setup_reps (fun r ->
        let s = setup_once r in
        if r < sh.setup_reps - 1 then begin
          teardown s;
          rm_rf s.dir
        end;
        s)
  in
  let s = List.nth setups (sh.setup_reps - 1) in
  let wire, http = Option.get !script in
  let files = dir_files s.dir in
  let page_files = List.length files - 1 in
  context "nproc %d; workload served_mix; fleet: Server.run workers=1 (child process), 1 client process, 2 domains, 2 keep-alive connections, closed loop"
    (nproc ());
  context
    "tree %s: %d nodes, %d leaves; default buffer pool 256 pages per file x %d files = %d pages, against %d repository pages (fits)"
    tree_name s.nodes sh.leaves page_files (256 * page_files)
    (s.disk_bytes / Crimson_storage.Page.size);
  context "wire cycle %d lines (lca, distance, clade, SEED+sample(8), project(16), match(16)); http cycle %d requests (overview, clade, POST query, conditional GET)"
    (Array.length wire) (Array.length http);
  let before = stats_counters s.conns in
  let wire_acc = new_acc () and http_acc = new_acc () in
  let minor0, _, major0 = Gc.counters () in
  let (t_start, t_end), speed =
    Host.probing (fun () ->
        let t_start = now () in
        let deadline = t_start +. cfg.seconds in
        if cfg.trace then Spans.enabled := true;
        (* Two domains rather than two systhreads: a reply that arrives
           while the other thread holds the runtime lock would wait for
           the next tick, and that wait is the client's, not the
           server's. *)
        let wire_domain =
          Domain.spawn (fun () ->
              loop ~name:"client.wire.request" ~trace:cfg.trace ~deadline
                ~len:(Array.length wire)
                ~send:(fun i -> wire_ok wire.(i) (Client.request_line s.conns.wire wire.(i).line))
                ~dispatched:(fun _ -> true) wire_acc)
        in
        loop ~name:"client.http.request" ~trace:cfg.trace ~deadline ~len:(Array.length http)
          ~send:(fun i ->
            match send_http s.conns.http http.(i) with
            | Ok r -> http_ok http.(i) r
            | Error _ -> false)
          ~dispatched:(fun i -> http.(i).expect <> Not_modified)
          http_acc;
        Domain.join wire_domain;
        Spans.enabled := false;
        (t_start, now ()))
  in
  let deadline = t_start +. cfg.seconds in
  let elapsed = t_end -. t_start in
  let minor1, _, major1 = Gc.counters () in
  let after = stats_counters s.conns in
  let rss = peak_rss_mb (string_of_int s.pid) in
  teardown s;
  let requests = wire_acc.attempted + http_acc.attempted in
  let all = Samples.create () in
  Samples.append all wire_acc.lat;
  Samples.append all http_acc.lat;
  let wire_lat = Host.scale speed ~ms:wire_acc.lat ~at:wire_acc.at in
  let http_lat = Host.scale speed ~ms:http_acc.lat ~at:http_acc.at in
  let scaled = Samples.create () in
  Samples.append scaled wire_lat;
  Samples.append scaled http_lat;
  let ops_per_s = float_of_int requests /. Host.scaled_s speed (t_start, t_end) in
  context "requests: %d wire, %d http in %.2f s; pooled p99 has %d samples beyond it"
    wire_acc.attempted http_acc.attempted elapsed
    (Samples.count all - int_of_float (ceil (0.99 *. float_of_int (Samples.count all))));
  context
    "host speed: kernel p50 %.3f ms over %d timings (reference %.3f ms); raw: pooled p50 %.4f ms, \
     p99 %.3f ms, %.1f req/s; scaled below"
    (Samples.percentile speed.Host.ms 50.0) (Samples.count speed.Host.ms)
    Host.reference_kernel_ms (Samples.percentile all 50.0) (Samples.percentile all 99.0)
    (float_of_int requests /. elapsed);
  named "wire_ms_p50" "ms" (Samples.percentile wire_lat 50.0);
  named "wire_ms_p99" "ms" (Samples.percentile wire_lat 99.0);
  named "http_ms_p50" "ms" (Samples.percentile http_lat 50.0);
  named "http_ms_p99" "ms" (Samples.percentile http_lat 99.0);
  named "served_ops_per_s" "req/s" ops_per_s;
  let metrics =
    if not cfg.trace then
      [
        metric "setup_s" "s" (median (List.map (fun s -> s.setup_s) setups));
        metric "peak_rss_mb" "MiB" rss;
        metric "op_ms_p50" "ms" (Samples.percentile scaled 50.0);
        metric "op_ms_tail" "ms" (Samples.percentile scaled 99.0);
        metric "ops_per_s" "1/s" ops_per_s;
        metric "load_nodes_per_s" "nodes/s" (median (List.map (fun s -> s.load_nodes_per_s) setups));
        metric "disk_bytes_per_node" "B" (float_of_int s.disk_bytes /. float_of_int s.nodes);
      ]
    else begin
      Spans.print_table ();
      let delta name = counter after name - counter before name in
      context "server.request_ms histogram: %.0f requests (includes the warm-up pass)"
        (histogram after "server.request_ms" "count");
      let server_wire, server_http =
        server_times (Option.get s.trace_out) ~t0:t_start ~t1:deadline
      in
      let overhead_line label client server =
        let c = Samples.percentile client 50.0 and sv = Samples.percentile server 50.0 in
        context
          "%s: client p50 %.4f ms (p99 %.3f) over %d dispatched requests, server p50 %.4f ms (p99 \
           %.3f) over %d"
          label c (Samples.percentile client 99.0) (Samples.count client) sv
          (Samples.percentile server 99.0) (Samples.count server);
        c -. sv
      in
      let wire_overhead = overhead_line "wire overhead" wire_acc.dispatched server_wire in
      let http_overhead = overhead_line "http overhead" http_acc.dispatched server_http in
      context "server GC: %.0f minor, %.0f major collections over %d requests; runtime words below are the client's"
        (gauge after "runtime.gc.minor_collections" -. gauge before "runtime.gc.minor_collections")
        (gauge after "runtime.gc.major_collections" -. gauge before "runtime.gc.major_collections")
        requests;
      context "server.requests counted %d (304 revalidations are answered before dispatch)"
        (delta "server.requests");
      print_counter_bases delta ~ops:requests ~op_name:"client requests";
      let traced_all = Samples.create () in
      Samples.append traced_all wire_acc.traced;
      Samples.append traced_all http_acc.traced;
      let overhead =
        100.0 *. ((Samples.percentile traced_all 50.0 /. Samples.percentile all 50.0) -. 1.0)
      in
      context "tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (%+.2f%%)"
        (Samples.percentile traced_all 50.0) (Samples.percentile all 50.0) overhead;
      (* Codec cost on the captured bytes. *)
      let reqs = Array.map request_bytes http in
      let feed_us =
        us_per_call 20_000 (Array.length reqs) (fun i ->
            ignore (Http.feed (Http.create_decoder ()) reqs.(i)))
      in
      let resps = Array.of_list (List.filter_map Fun.id (Array.to_list s.responses)) in
      let render_us =
        us_per_call 20_000 (Array.length resps) (fun i ->
            let r = resps.(i) in
            let extra =
              match Http_client.header r "etag" with Some e -> [ ("ETag", e) ] | None -> []
            in
            ignore (Http.render ~status:r.Http_client.status ~extra ~keep_alive:true r.Http_client.body))
      in
      (* The wire script replayed in this process on a read-only handle. *)
      let repo = Repo.open_dir ~mode:Crimson_storage.Database.Read_only ~create:false s.dir in
      let stored = Stored_tree.open_name repo tree_name in
      let ql = Samples.create () in
      let replay_failed = ref 0 in
      let rng = ref (Prng.create 0) in
      let until = now () +. Float.min 2.0 (cfg.seconds /. 4.0) in
      let i = ref 0 in
      while now () < until || !i < Array.length wire do
        let it = wire.(!i mod Array.length wire) in
        (match String.index_opt it.line ' ' with
        | Some sp when String.sub it.line 0 sp = "SEED" ->
            rng := Prng.create (int_of_string (String.sub it.line (sp + 1) (String.length it.line - sp - 1)))
        | _ ->
            let text = String.sub it.line 6 (String.length it.line - 6) in
            let r, ms = timed (fun () -> Query_lang.run ~rng:!rng ~record:false repo stored text) in
            Samples.add ql ms;
            (match (r, it.result) with
            | Ok o, Some exp when o.Query_lang.result = exp -> ()
            | _ -> incr replay_failed));
        incr i
      done;
      Repo.close repo;
      wire_acc.failed <- wire_acc.failed + !replay_failed;
      context "query_lang replay: %d queries on a read-only handle, %d mismatches" (Samples.count ql)
        !replay_failed;
      [
        metric "server.request_ms.p50" "ms" (histogram after "server.request_ms" "p50");
        metric "server.request_ms.p99" "ms" (histogram after "server.request_ms" "p99");
        metric "server.overhead_ms.wire" "ms" wire_overhead;
        metric "server.overhead_ms.http" "ms" http_overhead;
        metric "core.query_lang.ms.p50" "ms" (Samples.percentile ql 50.0);
        metric "gateway.http.feed_us" "us" feed_us;
        metric "gateway.http.render_us" "us" render_us;
        metric "trace.overhead_pct" "%" overhead;
      ]
      @ counter_metrics delta ~ops:requests
      @ runtime_metrics ~minor:(minor1 -. minor0) ~major:(major1 -. major0) ~ops:requests
      @ file_metrics ~files ~nodes:s.nodes
    end
  in
  {
    attempted = requests;
    failed = wire_acc.failed + http_acc.failed + s.warm_failed;
    metrics;
  }
