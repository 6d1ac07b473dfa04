(* E11, E14, E16 — the served repository under closed-loop load, each a
   cell of one grid of `Serve_load.closed_loop` rounds.

   - E14, the shared-nothing fleet: the workers x clients grid, plus an
     open loop and a parity replay. Throughput scales with workers only
     when the machine has cores to give them; the table records what
     this host delivers. The open loop sends at a fixed offered rate
     and measures completion minus *scheduled* send time, so queueing
     shows up in the percentiles instead of being absorbed by a slow
     client (no coordinated omission). The parity pass replays one
     seeded script against a 1-worker and a 4-worker fleet and
     byte-compares every "result" payload: sharding sessions across
     read-only repository handles must not change a single answer.
   - E11, the resident query service: the grid's w = 1 column at
     k in {1, 2, 4, 8}, with the server's own latency percentiles.
   - E16, the health plane: the w = 4, k = 8 cell with the plane off
     and on. "On" is everything the plane costs at once: an HTTP
     endpoint on a second Unix socket, the event journal, a slowlog
     threshold of 0 so every request is traced into its worker's
     slowlog ring, and a scraper polling /metrics and /healthz for the
     whole round. "Off" is the grid's config; heartbeats and the
     per-request watchdog bracketing run in both. The claim: the plane
     costs <= 3% of closed-loop throughput. The modes alternate for
     [obs_rounds] rounds and each keeps its best, so a noisy neighbour
     slows both modes or neither. *)

open Bench_common
open Serve_load
module Http_client = Crimson_server.Http_client

let run_e11 () =
  section "E11" "query service: k concurrent clients, throughput and latency";
  with_repo (fun ~dir ~repo_dir ->
      let rounds =
        List.map
          (fun k ->
            (k, closed_loop ~tag:"E11" ~dir ~repo_dir ~config:(config ~workers:1) ~clients:k ()))
          [ 1; 2; 4; 8 ]
      in
      let table = T.create ~columns:(("clients", T.Right) :: round_columns) in
      List.iter (fun (k, r) -> T.add_row table (string_of_int k :: round_row r)) rounds;
      print_string (T.render table);
      let k8 = List.assoc 8 rounds in
      emit_bench ~experiment:"E11"
        ~fields:
          [
            ("clients", Json.Num 8.0);
            ("requests_per_s", Json.Num k8.rps);
            ("server_p50_ms", Json.Num k8.stats.p50_ms);
            ("server_p99_ms", Json.Num k8.stats.p99_ms);
          ]
        ())

(* Replay one seeded script and return every query's result payload. *)
let results_of_round ~dir ~repo_dir ~workers =
  let sock = sock_path ~dir "e14_parity" in
  with_server ~tag:"E14" ~config:(config ~workers) ~repo_dir sock (fun () ->
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
      results)

(* One open-loop round: requests leave on a fixed schedule; latency is
   completion minus the scheduled departure, so a backed-up server
   accumulates queueing delay in the tail instead of hiding it. *)
let open_loop ~dir ~repo_dir ~workers ~rate ~seconds =
  let sock = sock_path ~dir "e14_ol" in
  with_server ~tag:"E14" ~config:(config ~workers) ~repo_dir sock (fun () ->
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
      Array.sort compare lat;
      let pct p = lat.(min (n - 1) (int_of_float (p *. float_of_int (n - 1)))) in
      (float_of_int n /. wall, pct 0.5, pct 0.99))

let run_e14 () =
  section "E14" "worker fleet: throughput grid and open-loop latency";
  with_repo (fun ~dir ~repo_dir ->
      note "host: %d available core(s) — worker scaling is bounded by hardware"
        (Domain.recommended_domain_count ());
      (* Closed-loop grid; the k = 8 cells feed the BENCH fields. *)
      let table =
        T.create
          ~columns:
            ((("workers", T.Right) :: ("clients", T.Right) :: round_columns)
            @ [ ("server RSS MiB", T.Right) ])
      in
      let k8 = Hashtbl.create 3 in
      List.iter
        (fun (workers, k) ->
          let r = closed_loop ~tag:"E14" ~dir ~repo_dir ~config:(config ~workers) ~clients:k () in
          if k = 8 then Hashtbl.replace k8 workers r;
          T.add_row table
            ((string_of_int workers :: string_of_int k :: round_row r)
            @ [ Printf.sprintf "%.1f" r.stats.rss_mb ]))
        (List.concat_map (fun w -> [ (w, 1); (w, 4); (w, 8) ]) [ 1; 2; 4 ]);
      print_string (T.render table);
      let rps w = (Hashtbl.find k8 w).rps in
      let rss_mb w = (Hashtbl.find k8 w).stats.rss_mb in
      let speedup = rps 4 /. rps 1 in
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
      let ol_p99 = Hashtbl.create 2 in
      List.iter
        (fun (workers, rate) ->
          let achieved, p50, p99 = open_loop ~dir ~repo_dir ~workers ~rate ~seconds:1.5 in
          if rate = 2000 then Hashtbl.replace ol_p99 workers p99;
          T.add_row ol_table
            [
              string_of_int workers;
              string_of_int rate;
              Printf.sprintf "%.0f" achieved;
              Printf.sprintf "%.3f" p50;
              Printf.sprintf "%.3f" p99;
            ])
        [ (1, 500); (1, 2000); (4, 500); (4, 2000) ];
      print_string (T.render ol_table);
      let ol_p99 = Hashtbl.find ol_p99 in
      emit_bench ~experiment:"E14"
        ~fields:
          [
            ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
            ("rps_w1_k8", Json.Num (rps 1));
            ("rps_w2_k8", Json.Num (rps 2));
            ("rps_w4_k8", Json.Num (rps 4));
            ("speedup_w4_k8", Json.Num speedup);
            ("rss_mb_w1_k8", Json.Num (rss_mb 1));
            ("rss_mb_w2_k8", Json.Num (rss_mb 2));
            ("rss_mb_w4_k8", Json.Num (rss_mb 4));
            ("parity_mismatches", Json.Num (float_of_int mismatches));
            ("openloop_w1_r2000_p99_ms", Json.Num (ol_p99 1));
            ("openloop_w4_r2000_p99_ms", Json.Num (ol_p99 4));
          ]
        ())

let obs_workers = 4
let obs_clients = 8
let obs_rounds = 3

(* A scraper that polls the endpoint as fast as a nosy Prometheus
   would, until the round kills it. *)
let fork_scraper obs_sock () =
  let addr = Wire.Unix_path obs_sock in
  fork_child (fun () ->
      while true do
        ignore (Http_client.get addr "/metrics");
        ignore (Http_client.get addr "/healthz");
        ignore (Unix.select [] [] [] 0.05)
      done;
      0)

(* Queries per second of one w = 4, k = 8 round, plane off or on. *)
let obs_round ~obs ~dir ~repo_dir =
  let base = config ~workers:obs_workers in
  let config, beside =
    if not obs then (base, None)
    else
      let obs_sock = sock_path ~dir "e16_obs" in
      ( {
          base with
          Worker_core.slowlog_ms = Some 0.0;
          obs_listen = Some (Wire.Unix_path obs_sock);
          events_out = Some (Filename.concat dir "events.jsonl");
        },
        Some (fork_scraper obs_sock) )
  in
  let r = closed_loop ?beside ~tag:"E16" ~dir ~repo_dir ~config ~clients:obs_clients () in
  float_of_int (obs_clients * queries_per_client) /. r.wall

let run_e16 () =
  section "E16" "health plane: closed-loop overhead with the endpoint scraped live";
  with_repo (fun ~dir ~repo_dir ->
      note "fleet: %d workers, %d clients x %d queries; %d interleaved rounds, best kept"
        obs_workers obs_clients queries_per_client obs_rounds;
      let table =
        T.create
          ~columns:
            [ ("round", T.Right); ("obs off req/s", T.Right); ("obs on req/s", T.Right) ]
      in
      let best_off = ref 0.0 and best_on = ref 0.0 in
      for r = 1 to obs_rounds do
        let off = obs_round ~obs:false ~dir ~repo_dir in
        let on = obs_round ~obs:true ~dir ~repo_dir in
        best_off := Float.max !best_off off;
        best_on := Float.max !best_on on;
        T.add_row table
          [ string_of_int r; Printf.sprintf "%.0f" off; Printf.sprintf "%.0f" on ]
      done;
      print_string (T.render table);
      let off = !best_off and on = !best_on in
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
