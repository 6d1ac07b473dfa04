(* E14 — shared-nothing fleet: a workers x clients throughput grid and
   an open-loop load generator at fixed offered rates.

   E11 measures the single-engine service; this experiment measures the
   coordinator + N worker-domain fleet behind the same socket. Two
   views, because they answer different capacity questions:

   - Closed loop: k scripted clients each issue the E11 query mix
     back-to-back. Throughput scales with workers only when the machine
     has cores to give them — the table records whatever this container
     actually delivers, it does not assume parallel hardware.
   - Open loop: one client issues requests at a fixed offered rate and
     measures completion minus *scheduled* send time, so server-side
     queueing shows up in the percentiles instead of being absorbed by
     a slow client (no coordinated omission).

   A parity pass also replays one seeded script against a 1-worker and
   a 4-worker fleet and byte-compares every query's "result" payload:
   sharding sessions across read-only repository handles must not
   change a single answer. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client

let leaves = 2000
let queries_per_client = 200

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

let fork_server ~workers ~repo_dir ~sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      (* The forked server must start from a zeroed registry like an
         exec'd one, or the parent's earlier experiments leak into the
         STATS this round scrapes. *)
      Crimson_obs.Metrics.reset_all ();
      let repo = Repo.open_dir ~create:false repo_dir in
      let config =
        {
          Worker_core.default_config with
          Worker_core.max_sessions = 64;
          request_timeout = 10.0;
          workers;
        }
      in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () -> Server.run ~config repo (Wire.Unix_path sock));
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      pid

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Printf.eprintf "E14: server did not exit cleanly\n%!"

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
  let gauge name =
    match Option.bind (member "gauges" metrics) (member name) with
    | Some (Num v) -> v
    | _ -> 0.0
  in
  ( counter "server.requests",
    hist_field "server.request_ms" "p50",
    hist_field "server.request_ms" "p99",
    gauge "runtime.rss_bytes" /. 1048576.0 )

(* One closed-loop round: a fresh fleet, k scripted clients, wall-clock
   throughput plus the server's own latency percentiles and its resident
   set size (MiB) once the clients are done. *)
let closed_loop ~dir ~repo_dir ~workers ~clients:k =
  let sock = Filename.concat dir (Printf.sprintf "e14_w%d_k%d.sock" workers k) in
  let server = fork_server ~workers ~repo_dir ~sock in
  let t0 = Unix.gettimeofday () in
  let clients = List.init k (fun i -> fork_client ~sock ~seed:i) in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, status ->
          Printf.eprintf "E14: client %d failed (%s)\n%!" pid
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))
    clients;
  let wall = Unix.gettimeofday () -. t0 in
  let requests, p50, p99, rss_mb = scrape_stats sock in
  stop_server server;
  (requests, wall, float_of_int requests /. wall, p50, p99, rss_mb)

(* Replay one seeded script and return every query's result payload. *)
let results_of_round ~dir ~repo_dir ~workers =
  let sock = Filename.concat dir (Printf.sprintf "e14_parity_w%d.sock" workers) in
  let server = fork_server ~workers ~repo_dir ~sock in
  let c = Client.connect (Wire.Unix_path sock) in
  ignore (Client.request c "USE bench");
  ignore (Client.request c "SEED 5");
  let results =
    List.map
      (fun q ->
        let reply = Client.request c ("QUERY " ^ q) in
        match Client.str_field "result" reply with
        | Some r -> r
        | None -> Printf.sprintf "<error %s>" (Crimson_obs.Json.to_string reply))
      (script 3)
  in
  ignore (Client.request c "QUIT");
  Client.close c;
  stop_server server;
  results

(* One open-loop round: requests leave on a fixed schedule; latency is
   completion minus the scheduled departure, so a backed-up server
   accumulates queueing delay in the tail instead of hiding it. *)
let open_loop ~dir ~repo_dir ~workers ~rate ~seconds =
  let sock = Filename.concat dir (Printf.sprintf "e14_ol_w%d_r%d.sock" workers rate) in
  let server = fork_server ~workers ~repo_dir ~sock in
  let c = Client.connect (Wire.Unix_path sock) in
  ignore (Client.request c "USE bench");
  ignore (Client.request c "SEED 9");
  let n = int_of_float (float_of_int rate *. seconds) in
  let interval = 1.0 /. float_of_int rate in
  let rng = Prng.create 77 in
  let lat = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let scheduled = t0 +. (float_of_int i *. interval) in
    let now = Unix.gettimeofday () in
    if now < scheduled then ignore (Unix.select [] [] [] (scheduled -. now));
    ignore (Client.request c ("QUERY " ^ gen_query rng i));
    lat.(i) <- (Unix.gettimeofday () -. scheduled) *. 1000.0
  done;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Client.request c "QUIT");
  Client.close c;
  stop_server server;
  Array.sort compare lat;
  let pct p = lat.(min (n - 1) (int_of_float (p *. float_of_int (n - 1)))) in
  (float_of_int n /. wall, pct 0.5, pct 0.99)

let run () =
  section "E14" "worker fleet: throughput grid and open-loop latency";
  with_scratch_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let repo = Repo.open_dir repo_dir in
      ignore (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves));
      Repo.close repo;
      note "tree: yule %d leaves; %d queries/client (lca/distance/clade/sample mix)"
        leaves queries_per_client;
      note "host: %d available core(s) — worker scaling is bounded by hardware"
        (Domain.recommended_domain_count ());
      (* Closed-loop grid. *)
      let grid = Hashtbl.create 9 in
      let table =
        T.create
          ~columns:
            [
              ("workers", T.Right);
              ("clients", T.Right);
              ("requests", T.Right);
              ("wall s", T.Right);
              ("req/s", T.Right);
              ("server p50 ms", T.Right);
              ("server p99 ms", T.Right);
              ("server RSS MiB", T.Right);
            ]
      in
      List.iter
        (fun workers ->
          List.iter
            (fun k ->
              let requests, wall, rps, p50, p99, rss_mb =
                closed_loop ~dir ~repo_dir ~workers ~clients:k
              in
              Hashtbl.replace grid (workers, k) (rps, rss_mb);
              T.add_row table
                [
                  string_of_int workers;
                  string_of_int k;
                  string_of_int requests;
                  Printf.sprintf "%.2f" wall;
                  Printf.sprintf "%.0f" rps;
                  Printf.sprintf "%.3f" p50;
                  Printf.sprintf "%.3f" p99;
                  Printf.sprintf "%.1f" rss_mb;
                ])
            [ 1; 4; 8 ])
        [ 1; 2; 4 ];
      print_string (T.render table);
      let rps w k = try fst (Hashtbl.find grid (w, k)) with Not_found -> 0.0 in
      let rss_mb w k = try snd (Hashtbl.find grid (w, k)) with Not_found -> 0.0 in
      let speedup = rps 4 8 /. rps 1 8 in
      note "speedup at k=8: %.2fx (4 workers vs 1)" speedup;
      (* Parity: the fleet must not change a single answer. *)
      let one = results_of_round ~dir ~repo_dir ~workers:1 in
      let four = results_of_round ~dir ~repo_dir ~workers:4 in
      let mismatches =
        List.fold_left2 (fun n a b -> if String.equal a b then n else n + 1) 0 one four
      in
      note "parity: %d/%d results byte-identical between 1 and 4 workers"
        (List.length one - mismatches)
        (List.length one);
      (* Open-loop: offered rate vs observed latency. *)
      let ol_table =
        T.create
          ~columns:
            [
              ("workers", T.Right);
              ("offered req/s", T.Right);
              ("achieved req/s", T.Right);
              ("p50 ms", T.Right);
              ("p99 ms", T.Right);
            ]
      in
      let ol = Hashtbl.create 4 in
      List.iter
        (fun workers ->
          List.iter
            (fun rate ->
              let achieved, p50, p99 =
                open_loop ~dir ~repo_dir ~workers ~rate ~seconds:1.5
              in
              Hashtbl.replace ol (workers, rate) (p50, p99);
              T.add_row ol_table
                [
                  string_of_int workers;
                  string_of_int rate;
                  Printf.sprintf "%.0f" achieved;
                  Printf.sprintf "%.3f" p50;
                  Printf.sprintf "%.3f" p99;
                ])
            [ 500; 2000 ])
        [ 1; 4 ];
      print_string (T.render ol_table);
      let ol_p99 w r = try snd (Hashtbl.find ol (w, r)) with Not_found -> 0.0 in
      emit_bench ~experiment:"E14"
        ~fields:
          [
            ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
            ("rps_w1_k8", Json.Num (rps 1 8));
            ("rps_w2_k8", Json.Num (rps 2 8));
            ("rps_w4_k8", Json.Num (rps 4 8));
            ("speedup_w4_k8", Json.Num speedup);
            ("rss_mb_w1_k8", Json.Num (rss_mb 1 8));
            ("rss_mb_w2_k8", Json.Num (rss_mb 2 8));
            ("rss_mb_w4_k8", Json.Num (rss_mb 4 8));
            ("parity_mismatches", Json.Num (float_of_int mismatches));
            ("openloop_w1_r2000_p99_ms", Json.Num (ol_p99 1 2000));
            ("openloop_w4_r2000_p99_ms", Json.Num (ol_p99 4 2000));
          ]
        ())
