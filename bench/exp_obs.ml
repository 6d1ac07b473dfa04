(* E16 — health-plane overhead: the same closed-loop fleet workload as
   E14's w=4/k=8 cell, with the observability plane off and on.

   "On" means everything the plane costs at once: an HTTP endpoint
   bound on a second Unix socket, the event journal, a slowlog
   threshold of 0 so every request is traced into the fleet-merge
   rings, and a live scraper process hammering /metrics and /healthz
   for the whole run (each scrape triggers the snapshot-request
   round-trip to all four workers). "Off" is the default config —
   heartbeats and the per-request watchdog bracketing still run, since
   they are unconditionally part of the server now.

   The claim under test: the plane costs <= 3% of closed-loop
   throughput. Each mode runs [rounds] times interleaved and keeps its
   best round, so a noisy neighbour slows both modes or neither. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client
module Http_client = Crimson_server.Http_client

let leaves = 2000
let queries_per_client = 200
let clients = 8
let workers = 4
let rounds = 3

let gen_query rng i =
  let leaf () = Printf.sprintf "T%d" (Prng.int rng leaves) in
  match i mod 4 with
  | 0 -> Printf.sprintf "lca(%s, %s)" (leaf ()) (leaf ())
  | 1 -> Printf.sprintf "distance(%s, %s)" (leaf ()) (leaf ())
  | 2 -> Printf.sprintf "clade(%s, %s, %s)" (leaf ()) (leaf ()) (leaf ())
  | _ -> "sample(8)"

let script seed =
  let rng = Prng.create (1000 + seed) in
  List.init queries_per_client (gen_query rng)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  if not (Sys.file_exists path) then failwith "server socket never appeared"

let fork_server ~obs ~dir ~repo_dir ~sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      Crimson_obs.Metrics.reset_all ();
      let repo = Repo.open_dir ~create:false repo_dir in
      let config =
        match obs with
        | None ->
            {
              Worker_core.default_config with
              Worker_core.max_sessions = 64;
              request_timeout = 10.0;
              workers;
            }
        | Some obs_sock ->
            {
              Worker_core.default_config with
              Worker_core.max_sessions = 64;
              request_timeout = 10.0;
              workers;
              slowlog_ms = Some 0.0;
              obs_listen = Some (Wire.Unix_path obs_sock);
              events_out = Some (Filename.concat dir "events.jsonl");
            }
      in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () -> Server.run ~config repo (Wire.Unix_path sock));
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      (match obs with Some obs_sock -> wait_for_socket obs_sock | None -> ());
      pid

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Printf.eprintf "E16: server did not exit cleanly\n%!"

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

(* A scraper that polls the endpoint as fast as a nosy Prometheus
   would, until the parent kills it. *)
let fork_scraper obs_sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      let addr = Wire.Unix_path obs_sock in
      (try
         while true do
           ignore (Http_client.get addr "/metrics");
           ignore (Http_client.get addr "/healthz");
           ignore (Unix.select [] [] [] 0.05)
         done
       with _ -> ());
      Unix._exit 0
  | pid -> pid

let one_round ~obs ~dir ~repo_dir ~tag =
  let sock = Filename.concat dir (Printf.sprintf "e16_%s.sock" tag) in
  let obs_sock =
    if obs then Some (Filename.concat dir (Printf.sprintf "e16_%s_obs.sock" tag))
    else None
  in
  let server = fork_server ~obs:obs_sock ~dir ~repo_dir ~sock in
  let scraper = Option.map fork_scraper obs_sock in
  let t0 = Unix.gettimeofday () in
  let pids = List.init clients (fun i -> fork_client ~sock ~seed:i) in
  let failed = ref 0 in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> incr failed)
    pids;
  let wall = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    scraper;
  stop_server server;
  if !failed > 0 then Printf.eprintf "E16: %d client(s) failed\n%!" !failed;
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) obs_sock;
  float_of_int (clients * queries_per_client) /. wall

let run () =
  section "E16" "health plane: closed-loop overhead with the endpoint scraped live";
  with_scratch_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves));
      Repo.close repo;
      note "fleet: %d workers, %d clients x %d queries; %d interleaved rounds, best kept"
        workers clients queries_per_client rounds;
      let best = Hashtbl.create 2 in
      let table =
        T.create
          ~columns:
            [ ("round", T.Right); ("obs off req/s", T.Right); ("obs on req/s", T.Right) ]
      in
      for r = 1 to rounds do
        let off = one_round ~obs:false ~dir ~repo_dir ~tag:(Printf.sprintf "off%d" r) in
        let on = one_round ~obs:true ~dir ~repo_dir ~tag:(Printf.sprintf "on%d" r) in
        let keep k v =
          Hashtbl.replace best k (Float.max v (try Hashtbl.find best k with Not_found -> 0.0))
        in
        keep `Off off;
        keep `On on;
        T.add_row table
          [ string_of_int r; Printf.sprintf "%.0f" off; Printf.sprintf "%.0f" on ]
      done;
      print_string (T.render table);
      let off = Hashtbl.find best `Off and on = Hashtbl.find best `On in
      let overhead_pct = (off -. on) /. off *. 100.0 in
      note "best rounds: off %.0f req/s, on %.0f req/s — overhead %.1f%% (claim: <= 3%%)"
        off on overhead_pct;
      emit_bench ~experiment:"E16"
        ~fields:
          [
            ("rps_obs_off", Json.Num off);
            ("rps_obs_on", Json.Num on);
            ("overhead_pct", Json.Num overhead_pct);
          ]
        ())
