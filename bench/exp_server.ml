(* E11 — query service: k concurrent scripted clients over one served
   repository.

   The paper's north star is a resident Repository Manager answering
   many cheap queries over one indexed structure. This experiment forks
   a server on a Unix socket, points k scripted client processes at it
   (each running the same LCA/distance/clade/sample mix), and reports
   throughput plus the server-side request-latency percentiles scraped
   from the server's own registry via the STATS protocol request — the
   numbers a capacity plan would use. A fresh server per k keeps the
   histograms per-round. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client

let leaves = 2000
let queries_per_client = 200

(* The scripted workload: deterministic per client seed. *)
let script seed =
  let rng = Prng.create (1000 + seed) in
  List.init queries_per_client (fun i ->
      let leaf () = Printf.sprintf "T%d" (Prng.int rng leaves) in
      match i mod 4 with
      | 0 -> Printf.sprintf "lca(%s, %s)" (leaf ()) (leaf ())
      | 1 -> Printf.sprintf "distance(%s, %s)" (leaf ()) (leaf ())
      | 2 -> Printf.sprintf "clade(%s, %s, %s)" (leaf ()) (leaf ()) (leaf ())
      | _ -> "sample(8)")

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  if not (Sys.file_exists path) then failwith "server socket never appeared"

let fork_server ~repo_dir ~sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The child must never inherit the parent's open span stack or
         trace sink fd. *)
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      let repo = Repo.open_dir ~create:false repo_dir in
      let config =
        { Worker_core.default_config with Worker_core.max_sessions = 64; request_timeout = 10.0 }
      in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () -> Server.run ~config repo (Wire.Unix_path sock));
      (* _exit: skip at_exit so the child never re-flushes the parent's
         buffered bench output. *)
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      pid

let fork_client ~sock ~seed =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      let status =
        try
          let c = Client.connect (Wire.Unix_path sock) in
          let fail = ref 0 in
          if not (Client.ok (Client.request c "USE bench")) then incr fail;
          ignore (Client.request c (Printf.sprintf "SEED %d" seed));
          List.iter
            (fun q ->
              if not (Client.ok (Client.request c ("QUERY " ^ q))) then incr fail)
            (script seed);
          ignore (Client.request c "QUIT");
          Client.close c;
          if !fail = 0 then 0 else 1
        with _ -> 2
      in
      Unix._exit status
  | pid -> pid

let scrape_stats sock =
  let c = Client.connect (Wire.Unix_path sock) in
  let reply = Client.request c "STATS" in
  ignore (Client.request c "QUIT");
  Client.close c;
  let open Crimson_obs.Json in
  let metrics = Option.get (member "metrics" reply) in
  let counter name =
    match Option.bind (member "counters" metrics) (member name) with
    | Some (Num v) -> int_of_float v
    | _ -> 0
  in
  let hist_field name field =
    match
      Option.bind (Option.bind (member "histograms" metrics) (member name)) (member field)
    with
    | Some (Num v) -> v
    | _ -> 0.0
  in
  ( counter "server.requests",
    hist_field "server.request_ms" "p50",
    hist_field "server.request_ms" "p99" )

let run () =
  section "E11" "query service: k concurrent clients, throughput and latency";
  with_scratch_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves));
      Repo.close repo;
      note "tree: yule %d leaves; %d queries/client (lca/distance/clade/sample mix)"
        leaves queries_per_client;
      let table =
        T.create
          ~columns:
            [
              ("clients", T.Right);
              ("requests", T.Right);
              ("wall s", T.Right);
              ("req/s", T.Right);
              ("server p50 ms", T.Right);
              ("server p99 ms", T.Right);
            ]
      in
      let last = ref (0.0, 0.0, 0.0, 0) in
      List.iter
        (fun k ->
          let sock = Filename.concat dir (Printf.sprintf "e11_%d.sock" k) in
          let server = fork_server ~repo_dir ~sock in
          let t0 = Unix.gettimeofday () in
          let clients = List.init k (fun i -> fork_client ~sock ~seed:i) in
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, status ->
                  Printf.eprintf "E11: client %d failed (%s)\n%!" pid
                    (match status with
                    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                    | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                    | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))
            clients;
          let wall = Unix.gettimeofday () -. t0 in
          let requests, p50, p99 = scrape_stats sock in
          Unix.kill server Sys.sigterm;
          (match Unix.waitpid [] server with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Printf.eprintf "E11: server did not exit cleanly\n%!");
          let rps = float_of_int requests /. wall in
          T.add_row table
            [
              string_of_int k;
              string_of_int requests;
              Printf.sprintf "%.2f" wall;
              Printf.sprintf "%.0f" rps;
              Printf.sprintf "%.3f" p50;
              Printf.sprintf "%.3f" p99;
            ];
          last := (rps, p50, p99, k))
        [ 1; 2; 4; 8 ];
      print_string (T.render table);
      let rps, p50, p99, k = !last in
      emit_bench ~experiment:"E11"
        ~fields:
          [
            ("clients", Json.Num (float_of_int k));
            ("requests_per_s", Json.Num rps);
            ("server_p50_ms", Json.Num p50);
            ("server_p99_ms", Json.Num p99);
          ]
        ())
