(* End-to-end CLI integration tests: drive the actual `crimson` binary
   through the §3 demo workflow — simulate, load, query, project, match,
   benchmark, history. *)

let check = Alcotest.check

let crimson_binary =
  (* Tests run from _build/default/test; the binary sits in ../bin. *)
  let candidate =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "crimson.exe")
  in
  if Sys.file_exists candidate then candidate
  else Filename.concat (Filename.dirname Sys.executable_name) "../bin/crimson.exe"

let run_cli args =
  let cmd =
    Filename.quote_command crimson_binary args ~stdout:"/tmp/crimson_cli_out"
      ~stderr:"/tmp/crimson_cli_err"
  in
  let status = Sys.command cmd in
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (status, slurp "/tmp/crimson_cli_out", slurp "/tmp/crimson_cli_err")

let expect_success args =
  let status, out, err = run_cli args in
  if status <> 0 then
    Alcotest.failf "crimson %s failed (%d):\n%s%s" (String.concat " " args) status out err;
  out

let expect_failure args =
  let status, _, err = run_cli args in
  if status = 0 then Alcotest.failf "crimson %s unexpectedly succeeded" (String.concat " " args);
  err

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let with_workspace f =
  let dir = Filename.temp_file "crimson" ".cli" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let test_full_workflow () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      let nexus = Filename.concat dir "gold.nex" in
      (* simulate *)
      let out =
        expect_success
          [ "simulate"; "--model"; "yule"; "--leaves"; "60"; "--height"; "0.8";
            "--sequences"; "120"; "--seed"; "5"; "-o"; nexus ]
      in
      check Alcotest.bool "simulate reports" true (contains "leaves=60" out);
      (* load *)
      let out = expect_success [ "load"; "-r"; repo; nexus; "-n"; "gold" ] in
      check Alcotest.bool "load reports" true (contains "loaded \"gold\"" out);
      (* list *)
      let out = expect_success [ "list"; "-r"; repo ] in
      check Alcotest.bool "list shows tree" true (contains "gold" out);
      (* stats *)
      let out = expect_success [ "stats"; "-r"; repo; "-t"; "gold" ] in
      check Alcotest.bool "stats leaves" true (contains "leaves: 60" out);
      (* lca *)
      let out = expect_success [ "lca"; "-r"; repo; "-t"; "gold"; "T0"; "T7" ] in
      check Alcotest.bool "lca output" true (contains "LCA(T0, T7)" out);
      (* query *)
      let out =
        expect_success [ "query"; "-r"; repo; "-t"; "gold"; "distance(T0, T7)" ]
      in
      check Alcotest.bool "query answers" true (contains "=" out);
      (* project to newick *)
      let out =
        expect_success
          [ "project"; "-r"; repo; "-t"; "gold"; "--names"; "T0,T1,T2"; "--format";
            "newick" ]
      in
      check Alcotest.bool "projection newick" true (contains "T1" out && contains ";" out);
      (* match: a projection of the tree must match it *)
      let pattern = Filename.concat dir "pattern.nwk" in
      let oc = open_out pattern in
      output_string oc out;
      close_out oc;
      let out = expect_success [ "match"; "-r"; repo; "-t"; "gold"; pattern ] in
      check Alcotest.bool "pattern matches" true (contains "matched: true" out);
      (* benchmark *)
      let out =
        expect_success
          [ "benchmark"; "-r"; repo; "-t"; "gold"; "-k"; "8"; "--length"; "200";
            "--replicates"; "1"; "--algorithms"; "nj" ]
      in
      check Alcotest.bool "benchmark table" true (contains "nj+jc" out);
      (* history has accumulated entries *)
      let out = expect_success [ "history"; "-r"; repo ] in
      check Alcotest.bool "history recorded" true (contains "lca" out);
      (* export + delete *)
      let dot = Filename.concat dir "gold.dot" in
      ignore
        (expect_success
           [ "show"; "-r"; repo; "-t"; "gold"; "--format"; "dot"; "-o"; dot ]);
      check Alcotest.bool "dot written" true (Sys.file_exists dot);
      ignore (expect_success [ "delete"; "-r"; repo; "-t"; "gold" ]);
      let out = expect_success [ "list"; "-r"; repo ] in
      check Alcotest.bool "deleted" true (contains "no trees" out))

let test_error_reporting () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      (* Unknown tree name: the paper demos friendly error messages. *)
      let err = expect_failure [ "lca"; "-r"; repo; "-t"; "missing"; "A"; "B" ] in
      check Alcotest.bool "names the problem" true (contains "no tree named" err);
      (* Invalid sample input. *)
      let nexus = Filename.concat dir "t.nex" in
      ignore
        (expect_success
           [ "simulate"; "--model"; "yule"; "--leaves"; "10"; "--seed"; "1"; "-o"; nexus ]);
      ignore (expect_success [ "load"; "-r"; repo; nexus; "-n"; "t" ]);
      let err =
        expect_failure [ "project"; "-r"; repo; "-t"; "t"; "--sample"; "9999" ]
      in
      check Alcotest.bool "invalid sample reported" true (contains "sample" err);
      (* Malformed pattern file. *)
      let bad = Filename.concat dir "bad.nwk" in
      let oc = open_out bad in
      output_string oc "((broken";
      close_out oc;
      let err = expect_failure [ "match"; "-r"; repo; "-t"; "t"; bad ] in
      check Alcotest.bool "parse error reported" true (contains "Newick" err))

(* A refused load writes nothing: a tree name too long for its index is
   a load error, reported and exited like a duplicate tree name, and the
   repository then lists no tree. *)
let test_refused_load () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      let nexus = Filename.concat dir "t.nex" in
      ignore
        (expect_success
           [ "simulate"; "--model"; "yule"; "--leaves"; "10"; "--seed"; "1"; "-o"; nexus ]);
      let status, _, err =
        run_cli [ "load"; "-r"; repo; nexus; "-n"; String.make 600 'n' ]
      in
      check Alcotest.int "exit status" 124 status;
      check Alcotest.bool "a load error" true (contains "crimson: load failed: " err);
      let out = expect_success [ "list"; "-r"; repo ] in
      check Alcotest.bool "no tree listed" true (contains "no trees" out);
      ignore (expect_success [ "load"; "-r"; repo; nexus; "-n"; "t" ]);
      let status, _, err = run_cli [ "load"; "-r"; repo; nexus; "-n"; "t" ] in
      check Alcotest.int "a duplicate name exits the same" 124 status;
      check Alcotest.bool "a duplicate name is a load error" true
        (contains "crimson: load failed: " err))

let test_append_species_cli () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      let nexus = Filename.concat dir "t.nex" in
      ignore
        (expect_success
           [ "simulate"; "--model"; "yule"; "--leaves"; "8"; "--seed"; "2"; "-o"; nexus ]);
      ignore (expect_success [ "load"; "-r"; repo; nexus; "-n"; "t" ]);
      let fasta = Filename.concat dir "seqs.fa" in
      let oc = open_out fasta in
      output_string oc ">T0\nACGTACGT\n>T1\nTTTTCCCC\n";
      close_out oc;
      let out = expect_success [ "append-species"; "-r"; repo; "-t"; "t"; fasta ] in
      check Alcotest.bool "append reports" true (contains "appended 2 species" out);
      let out = expect_success [ "query"; "-r"; repo; "-t"; "t"; "seq(T0)" ] in
      check Alcotest.bool "sequence retrievable" true (contains "ACGTACGT" out))

(* Pull a counter value out of the registry table: rows render as
   `| storage.pager.read | 20 |`. *)
let metric_value out name =
  let lines = String.split_on_char '\n' out in
  let row =
    List.find_opt
      (fun line -> contains ("| " ^ name ^ " ") line)
      lines
  in
  match row with
  | None -> Alcotest.failf "metric %s not found in output:\n%s" name out
  | Some line -> (
      match String.split_on_char '|' line with
      | _ :: _ :: value :: _ -> int_of_string (String.trim value)
      | _ -> Alcotest.failf "unparseable metric row: %s" line)

let test_stats_and_metrics () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      let nexus = Filename.concat dir "t.nex" in
      ignore
        (expect_success
           [ "simulate"; "--model"; "yule"; "--leaves"; "8"; "--seed"; "2"; "-o"; nexus ]);
      ignore (expect_success [ "load"; "-r"; repo; nexus; "-n"; "t" ]);
      (* `crimson stats` dumps the telemetry registry: the load→stats
         sequence must have moved the pager read/miss counters, and at
         least one core.* histogram must carry percentile columns. *)
      let out = expect_success [ "stats"; "-r"; repo ] in
      check Alcotest.bool "registry banner" true (contains "-- telemetry registry --" out);
      check Alcotest.bool "percentile columns" true (contains "p99" out);
      check Alcotest.bool "core histogram present" true (contains "core.tree_stats" out);
      check Alcotest.bool "pager reads moved" true (metric_value out "storage.pager.read" > 0);
      check Alcotest.bool "pager misses moved" true (metric_value out "storage.pager.miss" > 0);
      (* A query under --metrics re-reads cached pages, so both hit and
         miss counters must be nonzero in its registry dump. *)
      let out =
        expect_success [ "lca"; "-r"; repo; "-t"; "t"; "T0"; "T7"; "--metrics" ]
      in
      check Alcotest.bool "metrics flag prints registry" true
        (contains "-- telemetry registry --" out);
      check Alcotest.bool "query hits pool" true (metric_value out "storage.pager.hit" > 0);
      check Alcotest.bool "query misses pool" true (metric_value out "storage.pager.miss" > 0);
      check Alcotest.bool "lca span recorded" true (contains "core.lca" out);
      (* Without --metrics the registry stays quiet. *)
      let out = expect_success [ "lca"; "-r"; repo; "-t"; "t"; "T0"; "T7" ] in
      check Alcotest.bool "no registry by default" true
        (not (contains "telemetry registry" out)))

(* serve's help names every verb HELLO advertises and every gateway
   route /v1/doc lists. *)
let test_serve_help () =
  let module Json = Crimson_obs.Json in
  let out = expect_success [ "serve"; "--help=plain" ] in
  let words =
    String.split_on_char ' '
      (String.map (fun c -> if String.contains "\n\t,()." c then ' ' else c) out)
  in
  let paths =
    match Crimson_gateway.Router.doc_routes with
    | Json.List routes ->
        List.filter_map
          (fun r ->
            match Json.member "path" r with Some (Json.Str p) -> Some p | _ -> None)
          routes
    | _ -> []
  in
  check Alcotest.bool "/v1/doc lists routes" true (paths <> []);
  List.iter
    (fun w -> check Alcotest.bool ("help names " ^ w) true (List.mem w words))
    (Crimson_gateway.Request.wire_verbs @ paths)

(* lca and clade are the query functions of the same names: the same
   answer and the same history row as `crimson query`, for any leaf name
   (here one with a space and one with a quote), and the language's
   error for one name. *)
let test_lca_clade_are_queries () =
  with_workspace (fun dir ->
      let repo = Filename.concat dir "repo" in
      let nwk = Filename.concat dir "apes.nwk" in
      Out_channel.with_open_bin nwk (fun oc ->
          output_string oc "((('Homo sapiens':1,Pan:1):1,'G''s':2):1,(Mus:2,Rattus:2):1);");
      ignore (expect_success [ "load"; "-r"; repo; nwk; "-n"; "apes" ]);
      (* The newest history row, from its text column on. *)
      let last_row () =
        let rows =
          String.split_on_char '\n' (expect_success [ "history"; "-r"; repo ])
          |> List.filter (fun l -> contains "pages  " l)
        in
        let row = List.nth rows (List.length rows - 1) in
        let rec from i = if String.sub row i 7 = "pages  " then i + 7 else from (i + 1) in
        String.sub row (from 0) (String.length row - from 0)
      in
      let query call =
        let out = expect_success [ "query"; "-r"; repo; "-t"; "apes"; call ] in
        let prefix = call ^ "\n  = " in
        check Alcotest.bool (call ^ " answers") true
          (String.starts_with ~prefix out);
        let n = String.length prefix in
        let result = String.sub out n (String.length out - n) in
        (result, last_row ())
      in
      let result, row = query "lca('Homo sapiens', 'Pan')" in
      check Alcotest.string "lca prints the query's result"
        ("LCA(Homo sapiens, Pan) = " ^ result)
        (expect_success [ "lca"; "-r"; repo; "-t"; "apes"; "Homo sapiens"; "Pan" ]);
      check Alcotest.string "lca records the query's row" row (last_row ());
      let result, row = query "clade('Homo sapiens', 'G''s')" in
      check Alcotest.string "clade prints the query's result" result
        (expect_success [ "clade"; "-r"; repo; "-t"; "apes"; "Homo sapiens"; "G's" ]);
      check Alcotest.string "clade records the query's row" row (last_row ());
      let err = expect_failure [ "lca"; "-r"; repo; "-t"; "apes"; "Pan" ] in
      check Alcotest.bool "one name is the language's error" true
        (contains "lca needs at least two species" err))

(* Every address option parses through one converter: a bad --to is
   refused before any connection, and the error names it. *)
let test_bad_address () =
  let err = expect_failure [ "connect"; "--to"; "nowhere:x"; "HELLO" ] in
  check Alcotest.bool "names the address" true (contains "nowhere:x" err)

let () =
  if not (Sys.file_exists crimson_binary) then begin
    print_endline "crimson binary not found; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "crimson_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "full workflow" `Slow test_full_workflow;
          Alcotest.test_case "error reporting" `Quick test_error_reporting;
          Alcotest.test_case "append species" `Quick test_append_species_cli;
          Alcotest.test_case "refused load writes nothing" `Quick test_refused_load;
          Alcotest.test_case "stats and metrics" `Quick test_stats_and_metrics;
          Alcotest.test_case "serve help lists verbs and routes" `Quick test_serve_help;
          Alcotest.test_case "lca and clade are queries" `Quick test_lca_clade_are_queries;
          Alcotest.test_case "bad address refused" `Quick test_bad_address;
        ] );
    ]
