(* The served-load harness: the one copy of what every experiment
   against a forked server needs. It builds the 2,000-leaf Yule
   repository, scripts the LCA/distance/clade/sample client mix, forks
   and stops a `Server.run` for a given `Worker_core.config`, scrapes
   STATS, and runs the closed-loop round: k scripted clients against one
   fresh server. E11, E14 and E16 are cells of that round's grid; E17
   boots its gateway through [with_server]. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client

let leaves = 2000
let queries_per_client = 200

(* Room for every client of a round, and a timeout no query of the mix
   reaches. *)
let config ~workers =
  {
    Worker_core.default_config with
    Worker_core.max_sessions = 64;
    request_timeout = 10.0;
    workers;
  }

(* The scripted workload, deterministic per client seed: E13 runs the
   same mix in-process. *)
let gen_query rng i =
  let leaf () = Printf.sprintf "T%d" (Prng.int rng leaves) in
  match i mod 4 with
  | 0 -> Printf.sprintf "lca(%s, %s)" (leaf ()) (leaf ())
  | 1 -> Printf.sprintf "distance(%s, %s)" (leaf ()) (leaf ())
  | 2 -> Printf.sprintf "clade(%s, %s, %s)" (leaf ()) (leaf ()) (leaf ())
  | _ -> "sample(8)"

let script ?(n = queries_per_client) seed =
  let rng = Prng.create (1000 + seed) in
  List.init n (gen_query rng)

(* A scratch directory whose repository holds the tree "bench". *)
let with_repo f =
  with_scratch_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves));
      Repo.close repo;
      note "tree: yule %d leaves; %d queries/client (lca/distance/clade/sample mix)"
        leaves queries_per_client;
      f ~dir ~repo_dir)

(* A socket path no earlier round of this run used, so waiting for it
   never finds a stale file. *)
let socks = ref 0

let sock_path ~dir name =
  incr socks;
  Filename.concat dir (Printf.sprintf "%s_%d.sock" name !socks)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  if not (Sys.file_exists path) then failwith (path ^ ": server socket never appeared")

(* Every child forked here starts clean: it must never inherit the
   parent's open span stack, trace sink fd or event journal. *)
let fork_child f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      (* _exit: skip at_exit so the child never re-flushes the parent's
         buffered bench output. *)
      Unix._exit (try f () with _ -> 2)
  | pid -> pid

(* Fork a server over [repo_dir] listening on [sock], and return once
   every Unix socket the config names accepts. The server starts from a
   zeroed registry like an exec'd one, or the parent's earlier
   experiments leak into the STATS a round scrapes. *)
let fork_server ~config ~repo_dir sock =
  let pid =
    fork_child (fun () ->
        Crimson_obs.Metrics.reset_all ();
        let repo = Repo.open_dir ~create:false repo_dir in
        Fun.protect
          ~finally:(fun () -> Repo.close repo)
          (fun () -> Server.run ~config repo (Wire.Unix_path sock));
        0)
  in
  List.iter
    (function Some (Wire.Unix_path p) -> wait_for_socket p | _ -> ())
    [ Some (Wire.Unix_path sock); config.Worker_core.obs_listen; config.http_listen ];
  pid

(* SIGTERM drains the server; anything but exit 0 is reported. *)
let stop_server ~tag pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Printf.eprintf "%s: server did not exit cleanly\n%!" tag

let with_server ~tag ~config ~repo_dir sock f =
  let pid = fork_server ~config ~repo_dir sock in
  Fun.protect ~finally:(fun () -> stop_server ~tag pid) f

(* One scripted client: select the tree, seed the session, run the
   seed's script. Exit 0 when every request succeeded. *)
let fork_client ~sock ~seed =
  fork_child (fun () ->
      let c = Client.connect (Wire.Unix_path sock) in
      let fail = ref 0 in
      if not (Client.ok (Client.request c "USE bench")) then incr fail;
      ignore (Client.request c (Printf.sprintf "SEED %d" seed));
      List.iter
        (fun q -> if not (Client.ok (Client.request c ("QUERY " ^ q))) then incr fail)
        (script seed);
      ignore (Client.request c "QUIT");
      Client.close c;
      if !fail = 0 then 0 else 1)

(* Reap [pids], reporting each one that failed. *)
let wait_clients ~tag pids =
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, status ->
          Printf.eprintf "%s: client %d failed (%s)\n%!" tag pid
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))
    pids

type stats = { requests : int; p50_ms : float; p99_ms : float; rss_mb : float }

(* The server's own request count, request-latency percentiles and
   resident set size (MiB), read through the STATS request. *)
let scrape_stats sock =
  let c = Client.connect (Wire.Unix_path sock) in
  let reply = Client.request c "STATS" in
  ignore (Client.request c "QUIT");
  Client.close c;
  let open Crimson_obs.Json in
  let metrics = Option.get (member "metrics" reply) in
  let num path =
    match List.fold_left (fun j k -> Option.bind j (member k)) (Some metrics) path with
    | Some (Num v) -> v
    | _ -> 0.0
  in
  {
    requests = int_of_float (num [ "counters"; "server.requests" ]);
    p50_ms = num [ "histograms"; "server.request_ms"; "p50" ];
    p99_ms = num [ "histograms"; "server.request_ms"; "p99" ];
    rss_mb = num [ "gauges"; "runtime.rss_bytes" ] /. 1048576.0;
  }

type round = { stats : stats; wall : float; rps : float }

(* One closed-loop round: a fresh server for [config], [clients]
   scripted clients, wall-clock throughput over the server's request
   count, then its STATS once the clients are done. [beside] forks a
   process that runs alongside the clients; it is killed when they
   finish. *)
let closed_loop ?beside ~tag ~dir ~repo_dir ~config ~clients () =
  let sock = sock_path ~dir (String.lowercase_ascii tag) in
  with_server ~tag ~config ~repo_dir sock (fun () ->
      let sidecar = Option.map (fun fork -> fork ()) beside in
      let t0 = Unix.gettimeofday () in
      wait_clients ~tag (List.init clients (fun i -> fork_client ~sock ~seed:i));
      let wall = Unix.gettimeofday () -. t0 in
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        sidecar;
      let stats = scrape_stats sock in
      { stats; wall; rps = float_of_int stats.requests /. wall })

(* The table columns every closed-loop round fills, and its row. *)
let round_columns =
  [
    ("requests", T.Right);
    ("wall s", T.Right);
    ("req/s", T.Right);
    ("server p50 ms", T.Right);
    ("server p99 ms", T.Right);
  ]

let round_row r =
  [
    string_of_int r.stats.requests;
    Printf.sprintf "%.2f" r.wall;
    Printf.sprintf "%.0f" r.rps;
    Printf.sprintf "%.3f" r.stats.p50_ms;
    Printf.sprintf "%.3f" r.stats.p99_ms;
  ]
