(* Tests for the trace pipeline: span-tree assembly (read back through
   the slowlog at threshold 0), slowlog threshold semantics, the event
   cap, JSONL sink rotation, record JSON round-trips, fork hygiene — and
   the end-to-end trace smoke test the acceptance criteria name: a forked
   server with [--slowlog-ms 0 --trace-out t.jsonl] whose SLOWLOG and
   METRICS replies parse and whose sink file rotates. *)

module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Trace = Crimson_obs.Trace
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Wire = Crimson_server.Wire
module Worker_core = Crimson_server.Worker_core
module Server = Crimson_server.Server
module Client = Crimson_server.Client

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* Every test starts from pristine pipeline state and must leave it
   pristine: the trace machinery is process-global. *)
let fresh () =
  Trace.reset ();
  Trace.set_sink None;
  Trace.set_slowlog_ms None;
  Trace.slowlog_reset ();
  Trace.set_slowlog_capacity 64;
  Trace.set_max_events 4096

let span_names (s : Trace.span) = List.map (fun (c : Trace.span) -> c.Trace.name) s.Trace.children

let rec find_span pred (s : Trace.span) =
  if pred s then Some s
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find_span pred c)
      None s.Trace.children

(* ----------------------------- Assembly ----------------------------- *)

(* The cases that read completed records back log every trace. *)
let fresh_logging_all () =
  fresh ();
  Trace.set_slowlog_ms (Some 0.0)

let test_assembly () =
  fresh_logging_all ();
  let v, ms =
    Trace.timed ~name:"test.trace.req" ~meta:[ ("q", Json.Str "lca(A, B)") ]
      (fun () ->
        check Alcotest.bool "collecting inside" true (Trace.collecting ());
        check Alcotest.bool "has an id inside" true (Trace.current_id () <> None);
        Span.with_ ~name:"outer" (fun () ->
            Span.attr "tree" (Json.Num 1.0);
            Span.with_ ~name:"inner.a" (fun () -> Span.attr "pages" (Json.Num 3.0));
            Span.with_ ~name:"inner.b" (fun () -> ()));
        42)
  in
  check Alcotest.int "value threads through" 42 v;
  check Alcotest.bool "elapsed non-negative" true (ms >= 0.0);
  check Alcotest.bool "not collecting after" false (Trace.collecting ());
  match Trace.slowlog () with
  | [] -> Alcotest.fail "trace record missing from the slowlog"
  | r :: _ ->
      let open Trace in
      check Alcotest.string "root name" "test.trace.req" r.root.name;
      check Alcotest.int "root depth" 0 r.root.depth;
      check (Alcotest.float 1e-9) "root elapsed via accessor" r.root.elapsed_ms
        (Trace.root_elapsed_ms r);
      check Alcotest.bool "meta kept" true
        (List.assoc_opt "q" r.meta = Some (Json.Str "lca(A, B)"));
      check (Alcotest.list Alcotest.string) "root children" [ "outer" ]
        (span_names r.root);
      (match r.root.children with
      | [ outer ] ->
          check (Alcotest.list Alcotest.string) "call order" [ "inner.a"; "inner.b" ]
            (span_names outer);
          check Alcotest.bool "outer attr" true
            (List.assoc_opt "tree" outer.attrs = Some (Json.Num 1.0));
          (match outer.children with
          | [ a; _ ] ->
              check Alcotest.int "child depth" 2 a.depth;
              check Alcotest.bool "child attr" true
                (List.assoc_opt "pages" a.attrs = Some (Json.Num 3.0));
              check Alcotest.bool "child start within root" true
                (a.start_ms >= 0.0 && a.start_ms <= r.root.elapsed_ms)
          | _ -> Alcotest.fail "outer children malformed")
      | _ -> Alcotest.fail "root children malformed");
      (* Ids are monotonic across traces. *)
      Trace.with_ ~name:"test.trace.req2" (fun () -> ());
      let records = Trace.slowlog () in
      fresh ();
      match records with
      | r2 :: r1 :: _ ->
          check Alcotest.bool "ids increase" true (r2.id > r1.id)
      | _ -> Alcotest.fail "second record missing"

let test_nested_timed_joins () =
  fresh_logging_all ();
  let outer_result =
    Trace.with_ ~name:"join.outer" (fun () ->
        let v, _ms = Trace.timed ~name:"join.inner" (fun () -> 7) in
        v)
  in
  check Alcotest.int "inner value" 7 outer_result;
  let records = Trace.slowlog () in
  fresh ();
  match records with
  | [ r ] ->
      check Alcotest.string "one record, outer root" "join.outer" r.Trace.root.Trace.name;
      check (Alcotest.list Alcotest.string) "inner joined as a span" [ "join.inner" ]
        (span_names r.Trace.root)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

let test_untraced_spans_are_free () =
  fresh_logging_all ();
  (* Span instrumentation outside any trace must not record anything
     (and Span.attr must be a no-op, not an error). *)
  Span.with_ ~name:"free.span" (fun () -> Span.attr "x" (Json.Num 1.0));
  let records = Trace.slowlog () in
  fresh ();
  check (Alcotest.list Alcotest.pass) "slowlog stays empty" [] records

(* ----------------------------- Slowlog ------------------------------ *)

let test_slowlog_thresholds () =
  fresh ();
  (* Disabled: nothing is kept however slow the trace. *)
  check Alcotest.bool "default threshold off" true (Trace.slowlog_threshold () = None);
  Trace.with_ ~name:"slow.off" (fun () -> ignore (Unix.select [] [] [] 0.002));
  check Alcotest.int "disabled logs nothing" 0 (List.length (Trace.slowlog ()));
  (* Zero threshold: every trace qualifies — the >= boundary means even
     an elapsed time rounding to exactly 0.0 is kept. *)
  Trace.set_slowlog_ms (Some 0.0);
  check Alcotest.bool "threshold readable" true
    (Trace.slowlog_threshold () = Some 0.0);
  Trace.with_ ~name:"slow.zero" (fun () -> ());
  (match Trace.slowlog () with
  | [ r ] -> check Alcotest.string "kept at boundary" "slow.zero" r.Trace.root.Trace.name
  | rs -> Alcotest.failf "zero threshold kept %d records, wanted 1" (List.length rs));
  (* A high threshold drops fast traces but keeps one that sleeps past
     it. *)
  Trace.slowlog_reset ();
  Trace.set_slowlog_ms (Some 5.0);
  Trace.with_ ~name:"slow.fast" (fun () -> ());
  check Alcotest.int "below threshold dropped" 0 (List.length (Trace.slowlog ()));
  Trace.with_ ~name:"slow.slept" (fun () -> ignore (Unix.select [] [] [] 0.02));
  (match Trace.slowlog () with
  | [ r ] ->
      check Alcotest.string "slow trace kept" "slow.slept" r.Trace.root.Trace.name;
      check Alcotest.bool "its elapsed reached the threshold" true
        (Trace.root_elapsed_ms r >= 5.0)
  | rs -> Alcotest.failf "high threshold kept %d records, wanted 1" (List.length rs));
  (* An unreachable threshold is indistinguishable from off. *)
  Trace.slowlog_reset ();
  Trace.set_slowlog_ms (Some 1e9);
  Trace.with_ ~name:"slow.never" (fun () -> ());
  check Alcotest.int "unreachable logs nothing" 0 (List.length (Trace.slowlog ()));
  fresh ()

(* ---------------------------- Event cap ----------------------------- *)

let test_event_cap () =
  fresh_logging_all ();
  Trace.set_max_events 3;
  Trace.with_ ~name:"cap.root" (fun () ->
      for i = 0 to 9 do
        (* Dropped spans take their whole subtree with them. *)
        Span.with_ ~name:(Printf.sprintf "cap.child.%d" i) (fun () ->
            Span.with_ ~name:"cap.grandchild" (fun () -> ()))
      done);
  (match Trace.slowlog () with
  | r :: _ ->
      let rec count (s : Trace.span) =
        1 + List.fold_left (fun acc c -> acc + count c) 0 s.Trace.children
      in
      check Alcotest.int "tree truncated at the cap" 3 (count r.Trace.root);
      (* Root + child.0 + its grandchild survive; children 1..9 drop. *)
      check Alcotest.bool "dropped_events recorded" true
        (List.assoc_opt "dropped_events" r.Trace.meta = Some (Json.Num 9.0))
  | [] -> Alcotest.fail "capped trace record missing");
  (* The cap is per trace: the next trace collects normally. *)
  Trace.set_max_events 4096;
  Trace.with_ ~name:"cap.after" (fun () -> Span.with_ ~name:"cap.ok" (fun () -> ()));
  (match Trace.slowlog () with
  | r :: _ ->
      check Alcotest.bool "no dropped_events afterwards" true
        (List.assoc_opt "dropped_events" r.Trace.meta = None)
  | [] -> Alcotest.fail "record missing");
  fresh ()

(* A root that raises still yields its record, with the spans the
   exception unwound closed in it, and leaves nothing collecting. *)
let test_raising_root () =
  fresh_logging_all ();
  (match
     Trace.with_ ~name:"raise.root" (fun () ->
         Span.with_ ~name:"raise.child" (fun () -> failwith "boom"))
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  check Alcotest.bool "not collecting after" false (Trace.collecting ());
  let records = Trace.slowlog () in
  fresh ();
  match records with
  | [ r ] ->
      check Alcotest.string "root kept" "raise.root" r.Trace.root.Trace.name;
      check (Alcotest.list Alcotest.string) "unwound child kept" [ "raise.child" ]
        (span_names r.Trace.root)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

(* With no reader (slowlog off, no sink) a request is a plain timed
   scope: no trace collects, no attribute thunk runs, no record is made,
   and the root's histogram still gains its one sample. *)
let test_no_reader_no_tree () =
  fresh ();
  let root = Metrics.histogram "test.trace.unread" in
  let samples = Metrics.Histogram.count root in
  let records = Metrics.counter_value "obs.trace.records" in
  let thunks = ref 0 in
  let v =
    Trace.with_ ~name:"test.trace.unread" (fun () ->
        check Alcotest.bool "not collecting inside" false (Trace.collecting ());
        check Alcotest.bool "no trace id inside" true (Trace.current_id () = None);
        Span.attr "ignored" (Json.Num 1.0);
        Span.record (Metrics.histogram "test.trace.unread.child")
          ~attrs:(fun () ->
            incr thunks;
            [ ("ignored", Json.Num 2.0) ])
          (fun () -> Span.attr "ignored" (Json.Num 3.0));
        5)
  in
  check Alcotest.int "value threads through" 5 v;
  check Alcotest.int "no attribute thunk ran" 0 !thunks;
  check Alcotest.int "no record made" records (Metrics.counter_value "obs.trace.records");
  check Alcotest.int "root histogram sampled once" (samples + 1)
    (Metrics.Histogram.count root);
  check Alcotest.int "child histogram sampled once" 1
    (Metrics.Histogram.count (Metrics.histogram "test.trace.unread.child"));
  check Alcotest.int "slowlog stays empty" 0 (List.length (Trace.slowlog ()));
  fresh ()

(* A span past the cap takes the attributes set inside it along with
   its subtree: none lands on the kept parent, which keeps its own
   from before and after. *)
let test_cap_drops_attrs () =
  fresh_logging_all ();
  Trace.set_max_events 2;
  Trace.with_ ~name:"cap.attrs" (fun () ->
      Span.with_ ~name:"cap.kept" (fun () ->
          Span.attr "before" (Json.Bool true);
          Span.with_ ~name:"cap.dropped" (fun () ->
              Span.attr "leaked" (Json.Bool true);
              Span.with_ ~name:"cap.dropped.child" (fun () ->
                  Span.attr "leaked.child" (Json.Bool true)));
          Span.attr "after" (Json.Bool true)));
  let records = Trace.slowlog () in
  fresh ();
  match records with
  | [ r ] -> (
      check Alcotest.bool "one dropped span" true
        (List.assoc_opt "dropped_events" r.Trace.meta = Some (Json.Num 1.0));
      check Alcotest.bool "root has no attributes" true (r.Trace.root.Trace.attrs = []);
      match r.Trace.root.Trace.children with
      | [ kept ] ->
          check Alcotest.string "kept span" "cap.kept" kept.Trace.name;
          check (Alcotest.list Alcotest.string) "no child kept" [] (span_names kept);
          check (Alcotest.list Alcotest.string) "only its own attributes"
            [ "before"; "after" ] (List.map fst kept.Trace.attrs)
      | _ -> Alcotest.fail "root children malformed")
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs)

(* ------------------------------- Sink ------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "crimson_trace" ".d" in
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

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let decode_line line =
  match Trace.record_of_json (Json.parse line) with
  | Ok r -> r
  | Error e -> Alcotest.failf "sink line does not decode (%s): %s" e line

let test_sink_write_and_rotation () =
  fresh ();
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "t.jsonl" in
      Trace.set_sink ~max_bytes:300 (Some path);
      check Alcotest.bool "sink path visible" true (Trace.sink_path () = Some path);
      for i = 0 to 7 do
        Trace.with_ ~name:(Printf.sprintf "sink.%d" i) (fun () ->
            Span.with_ ~name:"sink.child" (fun () ->
                Span.attr "tree" (Json.Num (float_of_int i))))
      done;
      Trace.flush ();
      check Alcotest.bool "sink file exists" true (Sys.file_exists path);
      check Alcotest.bool "rotation produced .1" true (Sys.file_exists (path ^ ".1"));
      (* Every line in both generations is a complete, decodable record
         whose span tree survived the write. *)
      let records =
        List.map decode_line (read_lines (path ^ ".1") @ read_lines path)
      in
      check Alcotest.bool "records on disk" true (List.length records >= 2);
      List.iter
        (fun r ->
          check Alcotest.bool "root written" true
            (contains "sink." r.Trace.root.Trace.name);
          check (Alcotest.list Alcotest.string) "children written" [ "sink.child" ]
            (span_names r.Trace.root))
        records;
      check Alcotest.bool "rotations counted" true
        (Metrics.counter_value "obs.trace.sink.rotations" > 0);
      (* set_sink None closes; subsequent traces do not write. *)
      Trace.set_sink None;
      check Alcotest.bool "sink closed" true (Trace.sink_path () = None);
      let before = List.length (read_lines path) in
      Trace.with_ ~name:"sink.closed" (fun () -> ());
      check Alcotest.int "no write after close" before (List.length (read_lines path)));
  fresh ()

(* The sink alone is a reader: with no slowlog threshold, every request
   still collects its tree and writes it to the file. *)
let test_sink_without_threshold () =
  fresh ();
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "t.jsonl" in
      Trace.set_sink (Some path);
      check Alcotest.bool "no threshold" true (Trace.slowlog_threshold () = None);
      Trace.with_ ~name:"sink.only" (fun () ->
          check Alcotest.bool "collecting inside" true (Trace.collecting ());
          Span.with_ ~name:"sink.only.child" (fun () -> Span.attr "rows" (Json.Num 4.0)));
      Trace.flush ();
      (match List.map decode_line (read_lines path) with
      | [ r ] -> (
          check Alcotest.string "root written" "sink.only" r.Trace.root.Trace.name;
          match r.Trace.root.Trace.children with
          | [ c ] ->
              check Alcotest.string "child written" "sink.only.child" c.Trace.name;
              check Alcotest.bool "child attribute written" true
                (List.assoc_opt "rows" c.Trace.attrs = Some (Json.Num 4.0))
          | _ -> Alcotest.fail "root children malformed")
      | rs -> Alcotest.failf "expected one record on disk, got %d" (List.length rs));
      check Alcotest.int "slowlog stays empty" 0 (List.length (Trace.slowlog ())));
  fresh ()

(* --------------------------- JSON codecs ---------------------------- *)

let test_record_round_trip () =
  fresh_logging_all ();
  Trace.with_ ~name:"codec.root"
    ~meta:[ ("line", Json.Str "QUERY lca(\"A\", \"B\")\n"); ("session", Json.Num 3.0) ]
    (fun () ->
      Span.with_ ~name:"codec.child" (fun () ->
          Span.attr "pages" (Json.Num 12.0);
          Span.attr "table" (Json.Str "nodes");
          Span.with_ ~name:"codec.leaf" (fun () -> ())));
  let r = List.hd (Trace.slowlog ()) in
  fresh ();
  let json = Trace.record_to_json r in
  let round = Json.parse (Json.to_string json) in
  check Alcotest.bool "json survives render/parse" true (Json.equal json round);
  (match Trace.record_of_json round with
  | Ok r' ->
      check Alcotest.int "id" r.Trace.id r'.Trace.id;
      check Alcotest.bool "meta" true (r.Trace.meta = r'.Trace.meta);
      check Alcotest.bool "whole record round-trips" true
        (Json.equal json (Trace.record_to_json r'))
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Decoding rejects non-records with a message, not an exception. *)
  (match Trace.record_of_json (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a decode error");
  match Trace.record_of_json (Json.Obj [ ("trace", Json.Num 1.0) ]) with
  | Error e -> check Alcotest.bool "error names the gap" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected a decode error on a truncated record"

(* ---------------------------- Fork hygiene --------------------------- *)

let test_child_reset () =
  fresh ();
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "parent.jsonl" in
      Trace.set_sink (Some path);
      Trace.set_slowlog_ms (Some 0.0);
      Trace.with_ ~name:"parent.trace" (fun () -> ());
      check Alcotest.bool "parent has records" true (Trace.slowlog () <> []);
      check Alcotest.bool "parent has slowlog" true (Trace.slowlog () <> []);
      (* Simulate the forked child: inherited sink dropped, rings
         cleared, but configuration still usable afterwards. *)
      Trace.child_reset ();
      check Alcotest.bool "sink dropped" true (Trace.sink_path () = None);
      check Alcotest.int "records cleared" 0 (List.length (Trace.slowlog ()));
      check Alcotest.int "slowlog cleared" 0 (List.length (Trace.slowlog ()));
      let lines_before = List.length (read_lines path) in
      Trace.with_ ~name:"child.trace" (fun () -> ());
      check Alcotest.int "child never writes parent's file" lines_before
        (List.length (read_lines path));
      check Alcotest.int "child still collects in memory" 1
        (List.length (Trace.slowlog ())));
  fresh ()

(* --------------------------- End-to-end ----------------------------- *)

(* The acceptance smoke test: serve a repository with slowlog_ms = 0 and
   a JSONL trace sink, drive real queries through a client, then check
   (a) SLOWLOG returns span trees rooted at the request span with a
   storage-level child carrying attributes, (b) METRICS returns
   Prometheus text a line-oriented parser accepts, (c) the sink file
   holds complete records that round-trip, and rotated. *)

let test_trace_smoke () =
  fresh ();
  with_tmp_dir (fun dir ->
      let repo_dir = Filename.concat dir "repo" in
      let sock = Filename.concat dir "t.sock" in
      let trace_path = Filename.concat dir "t.jsonl" in
      let () =
        let repo = Repo.open_dir repo_dir in
        let tree = Models.yule ~rng:(Prng.create 11) ~leaves:60 () in
        ignore (Loader.load_tree ~f:4 repo ~name:"gold" tree);
        Repo.close repo
      in
      flush stdout;
      flush stderr;
      let server_pid =
        match Unix.fork () with
        | 0 ->
            Trace.child_reset ();
            let repo = Repo.open_dir ~create:false repo_dir in
            let config =
              {
                Worker_core.default_config with
                Worker_core.max_sessions = 4;
                request_timeout = 10.0;
                slowlog_ms = Some 0.0;
                trace_out = Some trace_path;
                trace_max_bytes = 2048;
                flush_interval = 0.2;
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
          (* The readiness probe becomes the session. *)
          let c = Client.of_fd probe in
          let must q =
            let r = Client.request c q in
            if not (Client.ok r) then
              Alcotest.failf "%S failed: %s" q (Json.to_string r);
            r
          in
          ignore (must "HELLO");
          ignore (must "USE gold");
          ignore (must "SEED 5");
          let queries =
            List.init 20 (fun i ->
                let a = (i * 7) mod 60 and b = ((i * 13) + 3) mod 60 in
                match i mod 4 with
                | 0 -> Printf.sprintf "lca(T%d, T%d)" a b
                | 1 -> Printf.sprintf "distance(T%d, T%d)" a b
                | 2 -> Printf.sprintf "clade(T%d, T%d, T%d)" a b ((a + b) mod 60)
                | _ -> "sample(6)")
          in
          List.iter (fun q -> ignore (must ("QUERY " ^ q))) queries;

          (* (a) SLOWLOG: span trees rooted at the request span, with a
             storage-level descendant that carries attributes. *)
          let slow = must "SLOWLOG" in
          (match Json.member "threshold_ms" slow with
          | Some (Json.Num v) -> check (Alcotest.float 0.0) "threshold echoed" 0.0 v
          | _ -> Alcotest.fail "SLOWLOG reply lacks threshold_ms");
          let entries =
            match Json.member "entries" slow with
            | Some (Json.List es) -> es
            | _ -> Alcotest.fail "SLOWLOG reply lacks entries"
          in
          check Alcotest.bool "slowlog non-empty" true (entries <> []);
          let records =
            List.map
              (fun e ->
                match Trace.record_of_json e with
                | Ok r -> r
                | Error msg -> Alcotest.failf "slowlog entry malformed: %s" msg)
              entries
          in
          List.iter
            (fun r ->
              check Alcotest.string "root is the request span" "server.request_ms"
                r.Trace.root.Trace.name;
              check Alcotest.bool "request line kept in meta" true
                (List.mem_assoc "line" r.Trace.meta))
            records;
          let has_storage_child r =
            find_span
              (fun (s : Trace.span) ->
                s.Trace.depth >= 1
                && (contains "core.node_cache" s.Trace.name
                   || contains "storage." s.Trace.name)
                && s.Trace.attrs <> [])
              r.Trace.root
            <> None
          in
          check Alcotest.bool "a storage-level child span with attributes" true
            (List.exists has_storage_child records);

          (* (b) METRICS: Prometheus text a line parser accepts. *)
          let metrics = must "METRICS" in
          (match Json.member "format" metrics with
          | Some (Json.Str "prometheus") -> ()
          | _ -> Alcotest.fail "METRICS reply lacks format=prometheus");
          let text =
            match Json.member "text" metrics with
            | Some (Json.Str t) -> t
            | _ -> Alcotest.fail "METRICS reply lacks text"
          in
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
          in
          check Alcotest.bool "metrics text non-empty" true (lines <> []);
          List.iter
            (fun line ->
              if String.length line > 0 && line.[0] <> '#' then
                match String.rindex_opt line ' ' with
                | None -> Alcotest.failf "metrics line lacks a value: %s" line
                | Some i -> (
                    match
                      float_of_string_opt
                        (String.sub line (i + 1) (String.length line - i - 1))
                    with
                    | Some _ -> ()
                    | None -> Alcotest.failf "unparseable metrics value: %s" line))
            lines;
          let requests =
            List.fold_left
              (fun acc line ->
                match acc with
                | Some _ -> acc
                | None ->
                    let prefix = "crimson_server_requests " in
                    if
                      String.length line > String.length prefix
                      && String.sub line 0 (String.length prefix) = prefix
                    then
                      float_of_string_opt
                        (String.sub line (String.length prefix)
                           (String.length line - String.length prefix))
                    else None)
              None lines
          in
          (match requests with
          | Some n ->
              check Alcotest.bool "request counter covers the workload" true
                (n >= 20.0)
          | None -> Alcotest.fail "crimson_server_requests missing from METRICS");

          ignore (Client.request c "QUIT");
          Client.close c;

          (* (c) The JSONL sink: complete records, round-trips, rotated. *)
          check Alcotest.bool "trace sink file exists" true
            (Sys.file_exists trace_path);
          check Alcotest.bool "trace sink rotated" true
            (Sys.file_exists (trace_path ^ ".1"));
          let sink_records =
            List.map decode_line
              (read_lines (trace_path ^ ".1") @ read_lines trace_path)
          in
          check Alcotest.bool "sink holds complete records" true
            (sink_records <> []);
          List.iter
            (fun r ->
              let json = Trace.record_to_json r in
              let round = Json.parse (Json.to_string json) in
              check Alcotest.bool "sink record round-trips" true
                (Json.equal json round))
            sink_records;
          check Alcotest.bool "sink saw a request trace" true
            (List.exists
               (fun r -> r.Trace.root.Trace.name = "server.request_ms")
               sink_records);

          (* Clean drain. *)
          Unix.kill server_pid Sys.sigterm;
          (match Unix.waitpid [] server_pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "server exited %d on SIGTERM" n
          | _, Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | _, _ -> Alcotest.fail "server stopped");
          check Alcotest.bool "socket removed on shutdown" false
            (Sys.file_exists sock)))

let () =
  Alcotest.run "crimson_trace"
    [
      ( "assembly",
        [
          Alcotest.test_case "span tree assembly" `Quick test_assembly;
          Alcotest.test_case "nested timed joins" `Quick test_nested_timed_joins;
          Alcotest.test_case "untraced spans are free" `Quick
            test_untraced_spans_are_free;
          Alcotest.test_case "event cap" `Quick test_event_cap;
          Alcotest.test_case "no reader, no tree" `Quick test_no_reader_no_tree;
          Alcotest.test_case "capped span takes its attributes" `Quick test_cap_drops_attrs;
          Alcotest.test_case "raising root still recorded" `Quick test_raising_root;
        ] );
      ( "rings",
        [
          Alcotest.test_case "slowlog thresholds" `Quick test_slowlog_thresholds;
        ] );
      ( "sink",
        [
          Alcotest.test_case "write and rotation" `Quick test_sink_write_and_rotation;
          Alcotest.test_case "record round-trip" `Quick test_record_round_trip;
          Alcotest.test_case "child reset" `Quick test_child_reset;
          Alcotest.test_case "sink without a threshold" `Quick test_sink_without_threshold;
        ] );
      ( "e2e",
        [ Alcotest.test_case "trace smoke" `Slow test_trace_smoke ] );
    ]
