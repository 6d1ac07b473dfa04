(* The Crimson command-line interface — the scripting face of the paper's
   GUI Manager. Every §3 demo feature is a subcommand: loading data
   (trees, structure only, or appending species data), tree projection
   with all three selection methods, visualisation (ASCII dendrogram /
   Newick / NEXUS), structure queries, gold-standard simulation, the
   Benchmark Manager, and the query history. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Newick = Crimson_formats.Newick
module Nexus = Crimson_formats.Nexus
module Dendrogram = Crimson_formats.Dendrogram
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Clade = Crimson_core.Clade
module Pattern = Crimson_core.Pattern
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module B = Crimson_benchmark.Benchmark_manager
module Prng = Crimson_util.Prng
module Wire = Crimson_server.Wire
module Server = Crimson_server.Server
module Worker_core = Crimson_server.Worker_core
module Http_client = Crimson_server.Http_client
module Client = Crimson_server.Client

open Cmdliner

(* ----------------------------- Helpers ----------------------------- *)

let print_registry () =
  let text = Crimson_obs.Metrics.to_text () in
  if text <> "" then print_string text

(* Returns the --trace-out path so `serve` can fold it into its engine
   config (with its own rotation cap) instead of defining a second flag
   of the same name. *)
let setup_logs style_renderer level metrics trace_out =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ());
  (match trace_out with
  | Some path ->
      Crimson_obs.Trace.set_sink (Some path);
      at_exit Crimson_obs.Trace.flush
  | None -> ());
  if metrics then
    at_exit (fun () ->
        print_string "\n-- telemetry registry --\n";
        print_registry ());
  trace_out

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the telemetry registry (counters, gauges, latency histograms) \
                 after the command finishes.")

let trace_out_flag =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Append every completed trace record (one request's span tree) as one \
                 JSON line to $(docv). Crash-safe append; rotates $(docv) to \
                 $(docv).1 at 64 MiB.")

(* Threaded through every subcommand, so --metrics, --trace-out and the
   log options are global flags. *)
let logging =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level () $ metrics_flag
        $ trace_out_flag)

let repo_arg =
  let doc = "Repository directory (created if absent)." in
  Arg.(required & opt (some string) None & info [ "r"; "repo" ] ~docv:"DIR" ~doc)

let tree_arg =
  let doc = "Name of the tree in the repository." in
  Arg.(required & opt (some string) None & info [ "t"; "tree" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Random seed (results are deterministic for a given seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let fail fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

let with_repo dir f =
  let repo = Repo.open_dir dir in
  Fun.protect ~finally:(fun () -> Repo.close repo) (fun () -> f repo)

let with_tree dir name f =
  with_repo dir (fun repo ->
      match Stored_tree.open_name repo name with
      | stored -> f repo stored
      | exception Stored_tree.Unknown_tree _ ->
          fail "no tree named %S in %s (try 'crimson list')" name dir)

(* Wrap command bodies: turn library exceptions into CLI errors, matching
   the paper's "if an input value is invalid … error messages". *)
let guarded f =
  try f () with
  | Sampling.Invalid_sample msg -> fail "invalid sample: %s" msg
  | Projection.Projection_error msg -> fail "projection failed: %s" msg
  | Pattern.Pattern_error msg -> fail "pattern match failed: %s" msg
  | Loader.Load_error msg -> fail "load failed: %s" msg
  | B.Benchmark_error msg -> fail "benchmark failed: %s" msg
  | Newick.Parse_error { pos; message } -> fail "Newick error at offset %d: %s" pos message
  | Nexus.Parse_error { line; message } -> fail "NEXUS error at line %d: %s" line message
  | Repo.Open_error msg -> fail "%s" msg
  | Server.Bind_error msg -> fail "%s" msg
  | Client.Connection_error msg -> fail "%s" msg
  | Sys_error msg -> fail "%s" msg

let resolve_names stored names =
  match Stored_tree.leaf_ids_by_names stored names with
  | Ok ids -> Ok ids
  | Error name -> Error name

let node_label stored n =
  match Stored_tree.node_name stored n with
  | Some s -> s
  | None -> Printf.sprintf "#%d" n

(* ------------------------------- load ------------------------------ *)

let load_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input file (Newick or NEXUS; NEXUS may carry species data).")
  in
  let name_opt =
    Arg.(value & opt (some string) None & info [ "n"; "name" ] ~docv:"NAME"
         ~doc:"Name for the loaded tree (default: file stem or NEXUS tree name).")
  in
  let f_param =
    Arg.(value & opt int 8 & info [ "f" ] ~docv:"F"
         ~doc:"Depth bound of the hierarchical labeling (>= 2).")
  in
  let structure_only =
    Arg.(value & flag & info [ "structure-only" ]
         ~doc:"Ignore species data in the input (load the tree structure only).")
  in
  let run _ dir file name f structure_only =
    guarded (fun () ->
        with_repo dir (fun repo ->
            let is_nexus =
              let ic = open_in_bin file in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  let probe = really_input_string ic (min 6 (in_channel_length ic)) in
                  String.uppercase_ascii probe = "#NEXUS")
            in
            let reports =
              if is_nexus then begin
                let doc = Nexus.parse_file file in
                let doc =
                  if structure_only then { doc with Nexus.characters = [] } else doc
                in
                let doc =
                  match (name, doc.Nexus.trees) with
                  | Some n, [ (_, t) ] -> { doc with Nexus.trees = [ (n, t) ] }
                  | _ -> doc
                in
                Loader.load_nexus ~f repo doc
              end
              else begin
                let tree = Newick.parse_file file in
                let name =
                  match name with
                  | Some n -> n
                  | None -> Filename.remove_extension (Filename.basename file)
                in
                [ Loader.load_tree ~f repo ~name tree ]
              end
            in
            List.iter
              (fun (r : Loader.report) ->
                Printf.printf
                  "loaded %S: %d nodes (%d leaves), %d layer rows, %d species rows\n"
                  (Stored_tree.name r.tree)
                  (Stored_tree.node_count r.tree)
                  (Stored_tree.leaf_count r.tree)
                  r.layer_rows r.species_rows)
              reports;
            `Ok ()))
  in
  let info =
    Cmd.info "load" ~doc:"Load a phylogenetic tree (and species data) into a repository"
  in
  Cmd.v info
    Term.(ret (const run $ logging $ repo_arg $ file $ name_opt $ f_param $ structure_only))

(* ------------------------------- list ------------------------------ *)

let list_cmd =
  let run _ dir =
    guarded (fun () ->
        with_repo dir (fun repo ->
            let trees = Stored_tree.list_all repo in
            if trees = [] then print_endline "(no trees loaded)"
            else
              List.iter
                (fun (id, name) ->
                  let s = Stored_tree.open_id repo id in
                  Printf.printf "#%d %-20s %8d nodes %8d leaves  f=%d layers=%d\n" id
                    name (Stored_tree.node_count s) (Stored_tree.leaf_count s)
                    (Stored_tree.f s) (Stored_tree.layer_count s))
                trees;
            `Ok ()))
  in
  Cmd.v (Cmd.info "list" ~doc:"List the trees in a repository")
    Term.(ret (const run $ logging $ repo_arg))

(* ------------------------------ delete ----------------------------- *)

let delete_cmd =
  let run _ dir name =
    guarded (fun () ->
        with_tree dir name (fun repo stored ->
            Loader.delete_tree repo stored;
            Printf.printf "deleted %S\n" name;
            `Ok ()))
  in
  Cmd.v (Cmd.info "delete" ~doc:"Remove a tree from the repository")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg))

(* ------------------------------- lca ------------------------------- *)

let species_pos =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"SPECIES" ~doc:"Species names.")

let lca_cmd =
  let run _ dir tree names =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            match resolve_names stored names with
            | Error n -> fail "unknown species %S" n
            | Ok ids ->
                let l, elapsed_ms, pages =
                  Crimson_obs.Profile.measure (fun () -> Stored_tree.lca_set stored ids)
                in
                Printf.printf "LCA(%s) = %s (depth %d, distance from root %g)\n"
                  (String.concat ", " names) (node_label stored l)
                  (Stored_tree.depth stored l)
                  (Stored_tree.root_distance stored l);
                ignore
                  (Repo.record_query repo ~elapsed_ms ~pages
                     ~text:(Printf.sprintf "lca %s" (String.concat "," names))
                     ~result:(node_label stored l));
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "lca" ~doc:"Least common ancestor of a set of species")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ species_pos))

(* ------------------------------ clade ------------------------------ *)

let clade_cmd =
  let run _ dir tree names =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            match resolve_names stored names with
            | Error n -> fail "unknown species %S" n
            | Ok ids ->
                let (root, size), elapsed_ms, pages =
                  Crimson_obs.Profile.measure (fun () ->
                      (Clade.root_of stored ids, Clade.size stored ids))
                in
                Printf.printf "minimal spanning clade rooted at %s: %d species\n"
                  (node_label stored root) size;
                if size <= 50 then begin
                  let members = Clade.leaf_ids stored ids in
                  Printf.printf "  members: %s\n"
                    (String.concat ", " (List.map (node_label stored) members))
                end;
                ignore
                  (Repo.record_query repo ~elapsed_ms ~pages
                     ~text:(Printf.sprintf "clade %s" (String.concat "," names))
                     ~result:(Printf.sprintf "%d species" size));
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "clade" ~doc:"Minimal spanning clade of a set of species")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ species_pos))

(* ----------------------------- project ----------------------------- *)

let output_format =
  Arg.(value
       & opt
           (enum
              [ ("ascii", `Ascii); ("newick", `Newick); ("nexus", `Nexus); ("dot", `Dot) ])
           `Ascii
       & info [ "format" ] ~docv:"FMT" ~doc:"Output format: ascii, newick, nexus or dot.")

let output_file =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
       ~doc:"Write the result to a file instead of standard output.")

let emit_tree fmt out tree =
  let text =
    match fmt with
    | `Ascii -> Dendrogram.render tree
    | `Newick -> Newick.to_string tree ^ "\n"
    | `Nexus -> Nexus.to_string (Nexus.of_tree tree)
    | `Dot -> Crimson_formats.Dot.render tree
  in
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
      Printf.printf "wrote %s\n" path

let project_cmd =
  let names =
    Arg.(value & opt (some (list string)) None & info [ "names" ] ~docv:"A,B,C"
         ~doc:"Project over these species (user-input selection).")
  in
  let sample_k =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"K"
         ~doc:"Project over K randomly sampled species.")
  in
  let time =
    Arg.(value & opt (some float) None & info [ "time" ] ~docv:"T"
         ~doc:"With --sample: sample with respect to evolutionary time T (paper §2.2).")
  in
  let run _ dir tree names sample_k time seed fmt out =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            let selection =
              match (names, sample_k) with
              | Some ns, None -> (
                  match resolve_names stored ns with
                  | Ok ids -> Ok (ids, Printf.sprintf "names=%s" (String.concat "," ns))
                  | Error n -> Error (Printf.sprintf "unknown species %S" n))
              | None, Some k ->
                  let rng = Prng.create seed in
                  let ids, how =
                    match time with
                    | None -> (Sampling.uniform stored ~rng ~k, Printf.sprintf "sample=%d" k)
                    | Some t ->
                        ( Sampling.with_time stored ~rng ~k ~time:t,
                          Printf.sprintf "sample=%d time=%g" k t )
                  in
                  Ok (ids, how)
              | Some _, Some _ -> Error "use either --names or --sample, not both"
              | None, None -> Error "choose species with --names or --sample"
            in
            match selection with
            | Error msg -> fail "%s" msg
            | Ok (ids, how) ->
                let projection, elapsed_ms, pages =
                  Crimson_obs.Profile.measure (fun () -> Projection.project stored ids)
                in
                emit_tree fmt out projection;
                ignore
                  (Repo.record_query repo ~elapsed_ms ~pages
                     ~text:(Printf.sprintf "project tree=%s %s" tree how)
                     ~result:(Printf.sprintf "%d nodes" (Tree.node_count projection)));
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "project" ~doc:"Tree projection over selected or sampled species")
    Term.(ret
            (const run $ logging $ repo_arg $ tree_arg $ names $ sample_k $ time
           $ seed_arg $ output_format $ output_file))

(* ------------------------------ match ------------------------------ *)

let match_cmd =
  let pattern_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PATTERN"
         ~doc:"Newick file holding the pattern tree.")
  in
  let run _ dir tree pattern_file =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            let pattern = Newick.parse_file pattern_file in
            let r, elapsed_ms, pages =
              Crimson_obs.Profile.measure (fun () -> Pattern.match_pattern stored pattern)
            in
            Printf.printf "matched: %b (weights too: %b)\n" r.matched r.weighted_match;
            Printf.printf "clade RF distance vs projection: %d (normalized %.3f)\n"
              r.rf_distance r.rf_normalized;
            ignore
              (Repo.record_query repo ~elapsed_ms ~pages
                 ~text:(Printf.sprintf "match tree=%s pattern=%s" tree pattern_file)
                 ~result:(string_of_bool r.matched));
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Tree pattern match against the stored tree")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ pattern_file))

(* ----------------------------- simulate ---------------------------- *)

let simulate_cmd =
  let model =
    Arg.(value
         & opt (enum
                  [
                    ("yule", `Yule); ("birth-death", `Bd); ("coalescent", `Coal);
                    ("caterpillar", `Cat); ("balanced", `Bal);
                  ]) `Yule
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Tree model: yule, birth-death, coalescent, caterpillar or balanced.")
  in
  let leaves =
    Arg.(value & opt int 100 & info [ "leaves" ] ~docv:"N" ~doc:"Number of species.")
  in
  let height =
    Arg.(value & opt (some float) None & info [ "height" ] ~docv:"H"
         ~doc:"Normalise tree height to H expected substitutions per site.")
  in
  let seq_len =
    Arg.(value & opt (some int) None & info [ "sequences" ] ~docv:"LEN"
         ~doc:"Also evolve DNA sequences of this length (JC69).")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output NEXUS file.")
  in
  let run _ model leaves height seq_len seed out =
    guarded (fun () ->
        let rng = Prng.create seed in
        let tree =
          match model with
          | `Yule -> Models.yule ~rng ~leaves ()
          | `Bd -> Models.birth_death ~rng ~leaves ()
          | `Coal -> Models.coalescent ~rng ~leaves ()
          | `Cat -> Models.caterpillar ~rng ~leaves ()
          | `Bal ->
              let height =
                int_of_float (Float.round (Float.log2 (float_of_int (max 2 leaves))))
              in
              Models.balanced ~rng ~height ()
        in
        let tree =
          match height with
          | Some h -> Ops.normalize_height tree ~target:h
          | None -> tree
        in
        let characters =
          match seq_len with
          | Some length -> Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length tree
          | None -> []
        in
        let doc = { (Nexus.of_tree ~name:"simulated" tree) with Nexus.characters } in
        Nexus.write_file out doc;
        Format.printf "simulated %a@." Tree.pp_stats (Tree.stats tree);
        Printf.printf "wrote %s\n" out;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Generate a gold-standard simulation tree (and sequences)")
    Term.(ret (const run $ logging $ model $ leaves $ height $ seq_len $ seed_arg $ out))

(* ----------------------------- benchmark --------------------------- *)

let benchmark_cmd =
  let k = Arg.(value & opt int 20 & info [ "k" ] ~docv:"K" ~doc:"Sample size.") in
  let len =
    Arg.(value & opt int 500 & info [ "length" ] ~docv:"LEN" ~doc:"Sequence length.")
  in
  let reps =
    Arg.(value & opt int 3 & info [ "replicates" ] ~docv:"R" ~doc:"Replicates.")
  in
  let time =
    Arg.(value & opt (some float) None & info [ "time" ] ~docv:"T"
         ~doc:"Sample with respect to evolutionary time T instead of uniformly.")
  in
  let algos =
    let all =
      [ ("nj", B.nj_jc); ("nj-k2p", B.nj_k2p); ("nj-p", B.nj_p);
        ("upgma", B.upgma_jc); ("parsimony", B.parsimony) ]
    in
    Arg.(value
         & opt (list (enum all)) [ B.nj_jc; B.upgma_jc; B.parsimony ]
         & info [ "algorithms" ] ~docv:"A,B"
             ~doc:"Algorithms: nj, nj-k2p, nj-p, upgma, parsimony.")
  in
  let run _ dir tree k len reps time algos seed =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            let config =
              {
                B.default_config with
                sample_method = (match time with None -> B.Uniform | Some t -> B.With_time t);
                sample_k = k;
                sequence_length = len;
                replicates = reps;
                algorithms = algos;
                seed;
              }
            in
            let outcomes = B.run repo stored config in
            print_string (B.report (B.summarize outcomes));
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "benchmark"
       ~doc:"Evaluate reconstruction algorithms against the gold standard")
    Term.(ret
            (const run $ logging $ repo_arg $ tree_arg $ k $ len $ reps $ time $ algos
           $ seed_arg))

(* --------------------------- append-species ------------------------ *)

let append_species_cmd =
  let fasta_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FASTA"
         ~doc:"FASTA file whose sequence names match leaves of the tree.")
  in
  let run _ dir tree fasta_file =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            match Crimson_formats.Fasta.parse_file fasta_file with
            | exception Crimson_formats.Fasta.Parse_error { line; message } ->
                fail "FASTA error at line %d: %s" line message
            | pairs ->
                let rows = Loader.append_species repo stored pairs in
                Printf.printf "appended %d species (%d rows) to %S\n"
                  (List.length pairs) rows tree;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "append-species"
       ~doc:"Append species sequence data (FASTA) to an existing tree")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ fasta_file))

(* ------------------------------- stats ----------------------------- *)

let stats_cmd =
  let tree_opt =
    Arg.(value & opt (some string) None & info [ "t"; "tree" ] ~docv:"NAME"
         ~doc:"Only this tree (default: every tree in the repository).")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output: one JSON object with the stored trees \
                   and the full telemetry registry, for scripts and metric \
                   scrapers.")
  in
  let prometheus_flag =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Print the telemetry registry in Prometheus text exposition \
                   format (the same rendering the server's METRICS request \
                   returns) instead of the human tables.")
  in
  let run _ dir tree json prometheus =
    guarded (fun () ->
        with_repo dir (fun repo ->
            let show stored =
              print_string (Crimson_core.Tree_stats.to_string
                              (Crimson_core.Tree_stats.compute stored))
            in
            let selected =
              match tree with
              | Some name -> (
                  match Stored_tree.open_name repo name with
                  | stored -> Ok [ stored ]
                  | exception Stored_tree.Unknown_tree _ ->
                      Error (Printf.sprintf "no tree named %S in %s" name dir))
              | None ->
                  Ok (List.map (fun (id, _) -> Stored_tree.open_id repo id)
                        (Stored_tree.list_all repo))
            in
            (* Runtime health gauges refresh at scrape time; a one-shot
               CLI can afford the full heap walk for live_words. *)
            Crimson_obs.Runtime.refresh ~live:true ();
            match selected with
            | Error msg -> fail "%s" msg
            | Ok trees when prometheus ->
                (* Touch each tree so its stats exercise the registry,
                   then emit the scrape text. *)
                List.iter
                  (fun stored ->
                    ignore (Crimson_core.Tree_stats.compute stored))
                  trees;
                print_string (Crimson_obs.Metrics.to_prometheus ());
                `Ok ()
            | Ok trees when json ->
                (* The machine face of this command: the same registry
                   the server's STATS request exposes, plus per-tree
                   shape summaries. *)
                let module Json = Crimson_obs.Json in
                let tree_json stored =
                  Json.Obj
                    [
                      ("id", Json.Num (float_of_int (Stored_tree.id stored)));
                      ("name", Json.Str (Stored_tree.name stored));
                      ("nodes", Json.Num (float_of_int (Stored_tree.node_count stored)));
                      ("leaves", Json.Num (float_of_int (Stored_tree.leaf_count stored)));
                      ("f", Json.Num (float_of_int (Stored_tree.f stored)));
                      ("layers", Json.Num (float_of_int (Stored_tree.layer_count stored)));
                    ]
                in
                print_endline
                  (Json.to_string
                     (Json.Obj
                        [
                          ("trees", Json.List (List.map tree_json trees));
                          ("metrics", Crimson_obs.Metrics.to_json ());
                        ]));
                `Ok ()
            | Ok trees ->
                List.iter show trees;
                (* The session's telemetry: opening the repository and
                   computing the statistics above already exercised the
                   pager and the core query layer, so the registry is
                   never empty here. *)
                print_string "\n-- telemetry registry --\n";
                print_registry ();
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Structural statistics of stored trees plus the telemetry registry \
             (pager/WAL/B+tree counters, query latency histograms) for this session; \
             --json for a machine-readable registry dump, --prometheus for scrape \
             text")
    Term.(ret (const run $ logging $ repo_arg $ tree_opt $ json_flag $ prometheus_flag))

(* ------------------------------- query ----------------------------- *)

let query_cmd =
  let queries =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY"
         ~doc:"Queries like 'lca(A,B)' — see the command help for the language.")
  in
  let run _ dir tree seed queries =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            let rng = Prng.create seed in
            let errors = ref 0 in
            List.iter
              (fun q ->
                match
                  (* One trace per query, so --trace-out captures CLI
                     runs the same way the server captures requests. *)
                  Crimson_obs.Trace.with_ ~name:"cli.query"
                    ~meta:[ ("line", Crimson_obs.Json.Str q) ]
                    (fun () -> Crimson_core.Query_lang.run ~rng repo stored q)
                with
                | Ok { result; _ } -> Printf.printf "%s\n  = %s\n" q result
                | Error msg ->
                    incr errors;
                    Printf.printf "%s\n  ! %s\n" q msg)
              queries;
            if !errors > 0 then fail "%d quer%s failed" !errors
                (if !errors = 1 then "y" else "ies")
            else `Ok ()))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Run one or more textual queries against a stored tree.";
      `Pre Crimson_core.Query_lang.help;
    ]
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run textual queries (lca, clade, project, sample, …)" ~man)
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ seed_arg $ queries))

(* ------------------------------ profile ---------------------------- *)

let profile_cmd =
  let queries =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY"
         ~doc:"Queries like 'lca(A,B)' — see $(b,crimson query --help) for the \
               language.")
  in
  let explain_flag =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Describe each query's plan (resolution steps, access paths) \
                   without executing it.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"One JSON object per query with the full cost report.")
  in
  let run _ dir tree seed explain json queries =
    guarded (fun () ->
        with_tree dir tree (fun repo stored ->
            let module Json = Crimson_obs.Json in
            let module Profile = Crimson_obs.Profile in
            let rng = Prng.create seed in
            let errors = ref 0 in
            List.iter
              (fun q ->
                if explain then
                  match Crimson_core.Query_lang.explain stored q with
                  | Ok plan ->
                      Printf.printf "%s\n" q;
                      List.iter (fun l -> Printf.printf "  %s\n" l) plan
                  | Error msg ->
                      incr errors;
                      Printf.printf "%s\n  ! %s\n" q msg
                else
                  match Crimson_core.Query_lang.profile ~rng repo stored q with
                  | Ok (outcome, report) ->
                      if json then
                        print_endline
                          (Json.to_string
                             (Json.Obj
                                [
                                  ("query", Json.Str q);
                                  ("result", Json.Str outcome.Crimson_core.Query_lang.result);
                                  ("profile", Profile.report_to_json report);
                                ]))
                      else begin
                        Printf.printf "%s\n  = %s\n" q
                          outcome.Crimson_core.Query_lang.result;
                        print_string (Profile.report_to_text report)
                      end
                  | Error msg ->
                      incr errors;
                      Printf.printf "%s\n  ! %s\n" q msg)
              queries;
            if !errors > 0 then
              fail "%d quer%s failed" !errors (if !errors = 1 then "y" else "ies")
            else `Ok ()))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Run queries under the cost profiler and print a per-stage breakdown: \
          elapsed time, pages read/written, pager and node-cache hits/misses, \
          bytes decoded, cursor steps, fsyncs and GC allocation. The history row \
          records the cost summary, so $(b,crimson history) shows which past \
          queries were expensive and why. With $(b,--explain), print the plan \
          instead of executing.";
    ]
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run queries with a per-stage cost breakdown (or --explain the plan)" ~man)
    Term.(ret
            (const run $ logging $ repo_arg $ tree_arg $ seed_arg $ explain_flag
           $ json_flag $ queries))

(* ------------------------------ history ---------------------------- *)

let history_cmd =
  let run _ dir =
    guarded (fun () ->
        with_repo dir (fun repo ->
            let entries = Repo.history repo in
            if entries = [] then print_endline "(no queries recorded)"
            else
              List.iter
                (fun (q : Repo.query_record) ->
                  let tm = Unix.localtime q.time in
                  Printf.printf
                    "#%-4d %04d-%02d-%02d %02d:%02d  %7.2fms %5d pages  %-40s -> %s%s\n"
                    q.id (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
                    tm.Unix.tm_hour tm.Unix.tm_min q.elapsed_ms q.pages q.text q.result
                    (if q.cost = "" then "" else "\n      cost " ^ q.cost))
                entries;
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "history" ~doc:"Show the Query Repository (recorded queries)")
    Term.(ret (const run $ logging $ repo_arg))

(* ------------------------------- show ------------------------------ *)

let show_cmd =
  let run _ dir tree fmt out =
    guarded (fun () ->
        with_tree dir tree (fun _repo stored ->
            emit_tree fmt out (Loader.fetch_tree stored);
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Display or export a stored tree")
    Term.(ret (const run $ logging $ repo_arg $ tree_arg $ output_format $ output_file))

(* ------------------------------- serve ----------------------------- *)

let listen_doc = "HOST:PORT, :PORT, PORT, or unix:PATH."
let default_listen = "127.0.0.1:7151"

let serve_cmd =
  let db =
    Arg.(required & opt (some string) None
         & info [ "db"; "r"; "repo" ] ~docv:"DIR"
             ~doc:"Repository directory to serve (must already exist unless \
                   $(b,--create) is given).")
  in
  let listen =
    Arg.(value & opt string default_listen
         & info [ "listen" ] ~docv:"ADDR" ~doc:("Listen address: " ^ listen_doc))
  in
  let max_sessions =
    Arg.(value & opt int Worker_core.default_config.Worker_core.max_sessions
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Admission control: concurrent sessions beyond N are rejected \
                   with a protocol error.")
  in
  let timeout =
    Arg.(value & opt float Worker_core.default_config.Worker_core.request_timeout
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request wall-clock timeout; 0 disables.")
  in
  let max_line =
    Arg.(value & opt int Worker_core.default_config.Worker_core.max_line
         & info [ "max-line" ] ~docv:"BYTES" ~doc:"Input request-line length cap.")
  in
  let create =
    Arg.(value & flag
         & info [ "create" ]
             ~doc:"Create the repository directory when absent instead of failing.")
  in
  let slowlog_ms =
    Arg.(value & opt (some float) None
         & info [ "slowlog-ms" ] ~docv:"MS"
             ~doc:"Keep the full span tree of every request whose root span takes \
                   at least $(docv) milliseconds (0 logs every request). Inspect \
                   with $(b,crimson slowlog) or the SLOWLOG wire command. \
                   Disabled by default.")
  in
  let trace_max_bytes =
    Arg.(value & opt int Worker_core.default_config.Worker_core.trace_max_bytes
         & info [ "trace-max-bytes" ] ~docv:"BYTES"
             ~doc:"Rotation cap for the $(b,--trace-out) file.")
  in
  let flush_interval =
    Arg.(value & opt float Worker_core.default_config.Worker_core.flush_interval
         & info [ "flush-interval" ] ~docv:"SECONDS"
             ~doc:"How often the serving loop fsyncs the trace sink; 0 disables \
                   periodic flushing.")
  in
  let workers =
    Arg.(value
         & opt string (string_of_int Worker_core.default_config.Worker_core.workers)
         & info [ "workers" ] ~docv:"N"
             ~doc:"Workers serving requests. 1 (the default) serves every \
                   session on the accepting domain; N >= 2 hands sessions to N \
                   shared-nothing worker domains, each with its own read-only \
                   open of the repository. STATS/METRICS/TOP stay fleet-wide. \
                   $(b,auto) sizes the fleet from the machine's recommended \
                   domain count.")
  in
  let obs_listen =
    Arg.(value & opt (some string) None
         & info [ "obs-listen" ] ~docv:"ADDR"
             ~doc:("Serve the HTTP observability endpoint ($(b,/metrics), \
                    $(b,/healthz), $(b,/varz), $(b,/slowlog)) on $(docv): "
                   ^ listen_doc ^ " Disabled by default."))
  in
  let http_listen =
    Arg.(value & opt (some string) None
         & info [ "http-listen" ] ~docv:"ADDR"
             ~doc:("Serve the HTTP/JSON data-service gateway (the versioned \
                    $(b,/v1) resource API: $(b,/v1/trees), \
                    $(b,/v1/trees/NAME/overview), $(b,/v1/trees/NAME/clade), \
                    $(b,/v1/collections/NAME/consensus), $(b,/v1/doc)) on \
                    $(docv): " ^ listen_doc ^ " Disabled by default."))
  in
  let stall_after =
    Arg.(value & opt float Worker_core.default_config.Worker_core.stall_after
         & info [ "stall-after" ] ~docv:"SECONDS"
             ~doc:"Watchdog: flag a worker as stalled after this many seconds of \
                   heartbeat silence. $(b,/healthz) answers 503 while any worker \
                   is stalled.")
  in
  let stall_factor =
    Arg.(value & opt float Worker_core.default_config.Worker_core.stall_factor
         & info [ "stall-factor" ] ~docv:"K"
             ~doc:"Watchdog: an in-flight request may run K times its deadline \
                   budget before its worker counts as stalled.")
  in
  let events_out =
    Arg.(value & opt (some string) None
         & info [ "events-out" ] ~docv:"FILE"
             ~doc:"Append structured lifecycle/watchdog events (worker_stalled, \
                   worker_recovered, ...) to $(docv) as JSON lines (rotated like \
                   the trace sink).")
  in
  let debug_verbs =
    Arg.(value & flag
         & info [ "debug-verbs" ]
             ~doc:"Accept debug/fault-injection wire verbs (SLEEP). For tests \
                   and smoke scripts only.")
  in
  let run trace_out db listen max_sessions timeout max_line create slowlog_ms
      trace_max_bytes flush_interval workers obs_listen http_listen stall_after
      stall_factor events_out debug_verbs =
    guarded (fun () ->
        let workers =
          match String.lowercase_ascii (String.trim workers) with
          | "auto" -> Ok (Worker_core.auto_workers ())
          | s -> (
              match int_of_string_opt s with
              | Some n when n >= 1 -> Ok n
              | Some n -> Error (Printf.sprintf "--workers must be at least 1 (got %d)" n)
              | None ->
                  Error (Printf.sprintf "--workers expects a count or 'auto' (got %S)" s))
        in
        let obs_listen =
          match obs_listen with
          | None -> Ok None
          | Some s -> (
              match Wire.parse_addr s with
              | Ok a -> Ok (Some a)
              | Error msg ->
                  Error (Printf.sprintf "bad --obs-listen address: %s" msg))
        in
        let http_listen =
          match http_listen with
          | None -> Ok None
          | Some s -> (
              match Wire.parse_addr s with
              | Ok a -> Ok (Some a)
              | Error msg ->
                  Error (Printf.sprintf "bad --http-listen address: %s" msg))
        in
        match (Wire.parse_addr listen, workers, obs_listen, http_listen) with
        | Error msg, _, _, _ -> fail "bad --listen address: %s" msg
        | _, Error msg, _, _ | _, _, Error msg, _ | _, _, _, Error msg ->
            fail "%s" msg
        | Ok addr, Ok workers, Ok obs_listen, Ok http_listen ->
            let repo = Repo.open_dir ~create db in
            Fun.protect
              ~finally:(fun () -> Repo.close repo)
              (fun () ->
                let config =
                  {
                    Worker_core.max_sessions;
                    request_timeout = timeout;
                    max_line;
                    slowlog_ms;
                    trace_out;
                    trace_max_bytes;
                    flush_interval;
                    workers;
                    obs_listen;
                    http_listen;
                    stall_after;
                    stall_factor;
                    events_out;
                    events_max_bytes =
                      Worker_core.default_config.Worker_core.events_max_bytes;
                    debug_verbs;
                  }
                in
                let show_addr = function
                  | Unix.ADDR_INET (inet, port) ->
                      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr inet) port
                  | Unix.ADDR_UNIX path -> "unix:" ^ path
                in
                Server.run ~config
                  ~on_ready:(fun sockaddr ->
                    Printf.printf "crimson: serving %s on %s\n%!" db
                      (show_addr sockaddr))
                  ~on_obs_ready:(fun sockaddr ->
                    Printf.printf "crimson: observability on %s\n%!"
                      (show_addr sockaddr))
                  ~on_http_ready:(fun sockaddr ->
                    Printf.printf "crimson: http gateway on %s\n%!"
                      (show_addr sockaddr))
                  repo addr;
                `Ok ()))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Run the Crimson query service: one resident repository served to many \
          concurrent sessions over a line-oriented protocol with JSON replies. \
          Drive it with $(b,crimson connect), netcat, or any socket client.";
      `P "Requests: HELLO, USE <tree>, SEED <n>, QUERY <text>, STATS, SLOWLOG [n], \
          METRICS, QUIT. SIGINT/SIGTERM drain in-flight replies and exit cleanly.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve a repository over TCP or a Unix socket" ~man)
    Term.(ret
            (const run $ logging $ db $ listen $ max_sessions $ timeout $ max_line
           $ create $ slowlog_ms $ trace_max_bytes $ flush_interval $ workers
           $ obs_listen $ http_listen $ stall_after $ stall_factor $ events_out
           $ debug_verbs))

(* ------------------------------ connect ---------------------------- *)

let connect_cmd =
  let to_addr =
    Arg.(value & opt string default_listen
         & info [ "to"; "listen" ] ~docv:"ADDR" ~doc:("Server address: " ^ listen_doc))
  in
  let commands =
    Arg.(value & pos_all string []
         & info [] ~docv:"COMMAND"
             ~doc:"Protocol lines to send in order (e.g. 'USE gold' \
                   'QUERY lca(T0,T7)'). With none, lines are read from standard \
                   input until EOF.")
  in
  let run _ to_addr commands =
    guarded (fun () ->
        match Wire.parse_addr to_addr with
        | Error msg -> fail "bad --to address: %s" msg
        | Ok addr ->
            let client = Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                let alive = ref true in
                let send line =
                  if !alive && String.trim line <> "" then
                    match Client.request_line client line with
                    | Some reply -> print_endline reply
                    | None ->
                        alive := false;
                        prerr_endline "crimson: server closed the connection"
                in
                (match commands with
                | [] -> (
                    try
                      while true do
                        send (input_line stdin)
                      done
                    with End_of_file -> ())
                | lines -> List.iter send lines);
                `Ok ()))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "A scriptable client for $(b,crimson serve): sends each protocol line \
          and prints the server's one-line JSON reply.";
    ]
  in
  Cmd.v
    (Cmd.info "connect" ~doc:"Send protocol commands to a running crimson server" ~man)
    Term.(ret (const run $ logging $ to_addr $ commands))

(* ------------------------------ slowlog ---------------------------- *)

let print_trace_record r =
  let module Json = Crimson_obs.Json in
  let module Trace = Crimson_obs.Trace in
  let tm = Unix.localtime r.Trace.started_at in
  let meta =
    r.Trace.meta
    |> List.map (fun (k, v) ->
           let v = match v with Json.Str s -> s | other -> Json.to_string other in
           Printf.sprintf "%s=%s" k v)
    |> String.concat " "
  in
  Printf.printf "trace #%d  %04d-%02d-%02d %02d:%02d:%02d  %.3fms  %s\n" r.Trace.id
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec (Trace.root_elapsed_ms r) meta;
  let rec pp indent (s : Trace.span) =
    let attrs =
      match s.Trace.attrs with
      | [] -> ""
      | attrs ->
          "  {"
          ^ String.concat ", "
              (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) attrs)
          ^ "}"
    in
    Printf.printf "%s%s  %.3fms (at +%.3fms)%s\n" indent s.Trace.name
      s.Trace.elapsed_ms s.Trace.start_ms attrs;
    List.iter (pp (indent ^ "  ")) s.Trace.children
  in
  pp "  " r.Trace.root

let slowlog_cmd =
  let to_addr =
    Arg.(value & opt string default_listen
         & info [ "to"; "listen" ] ~docv:"ADDR" ~doc:("Server address: " ^ listen_doc))
  in
  let count =
    Arg.(value & opt (some int) None
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"At most N entries, newest first (default: the whole slowlog ring).")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print raw trace records, one JSON line per entry.")
  in
  let run _ to_addr count json =
    guarded (fun () ->
        match Wire.parse_addr to_addr with
        | Error msg -> fail "bad --to address: %s" msg
        | Ok addr ->
            let client = Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                let module Json = Crimson_obs.Json in
                let module Trace = Crimson_obs.Trace in
                let cmd =
                  match count with
                  | None -> "SLOWLOG"
                  | Some n -> Printf.sprintf "SLOWLOG %d" n
                in
                let reply = Client.request client cmd in
                if not (Client.ok reply) then
                  fail "server error: %s"
                    (Option.value ~default:"(no error message)"
                       (Client.str_field "error" reply))
                else
                  match Json.member "entries" reply with
                  | Some (Json.List entries) when json ->
                      List.iter (fun e -> print_endline (Json.to_string e)) entries;
                      `Ok ()
                  | Some (Json.List entries) ->
                      (match Json.member "threshold_ms" reply with
                      | Some (Json.Num t) ->
                          Printf.printf "slowlog threshold: %gms\n" t
                      | _ ->
                          print_endline
                            "slowlog threshold: (disabled — serve with --slowlog-ms)");
                      if entries = [] then print_endline "(no slow queries recorded)"
                      else
                        List.iter
                          (fun e ->
                            match Trace.record_of_json e with
                            | Ok r -> print_trace_record r
                            | Error msg ->
                                Printf.printf "(unparseable entry: %s)\n" msg)
                          entries;
                      `Ok ()
                  | _ -> fail "malformed SLOWLOG reply"))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Fetch the slow-query log from a running $(b,crimson serve) (started with \
          $(b,--slowlog-ms)) and print each entry's full span tree: per-span \
          timings plus structured attributes (pages touched, cache hits, result \
          sizes).";
    ]
  in
  Cmd.v
    (Cmd.info "slowlog" ~doc:"Show a running server's slow-query log (span trees)"
       ~man)
    Term.(ret (const run $ logging $ to_addr $ count $ json_flag))

(* -------------------------------- top ------------------------------ *)

let top_cmd =
  let to_addr =
    Arg.(value & opt string default_listen
         & info [ "to"; "listen" ] ~docv:"ADDR" ~doc:("Server address: " ^ listen_doc))
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let iterations =
    Arg.(value & opt int 0
         & info [ "iterations"; "n" ] ~docv:"N"
             ~doc:"Render N frames and exit (0 = run until interrupted).")
  in
  let run _ to_addr interval iterations =
    guarded (fun () ->
        match Wire.parse_addr to_addr with
        | Error msg -> fail "bad --to address: %s" msg
        | Ok addr ->
            let client = Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                let module Json = Crimson_obs.Json in
                let module TP = Crimson_util.Table_printer in
                let module Trace = Crimson_obs.Trace in
                let clear = Unix.isatty Unix.stdout in
                let path obj keys =
                  let rec go j = function
                    | [] -> Some j
                    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
                  in
                  go obj keys
                in
                let metric obj keys =
                  match path obj keys with Some (Json.Num v) -> Some v | _ -> None
                in
                let fnum = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
                let mib = function
                  | Some v -> Printf.sprintf "%.1f MiB" (v /. (1024.0 *. 1024.0))
                  | None -> "-"
                in
                (* requests at the previous frame, for a req/s estimate *)
                let prev_requests = ref None in
                let frame () =
                  let top = Client.request client "TOP" in
                  let stats = Client.request client "STATS" in
                  let slow = Client.request client "SLOWLOG 5" in
                  if not (Client.ok top) then
                    fail "server error: %s"
                      (Option.value ~default:"(no error message)"
                         (Client.str_field "error" top))
                  else begin
                    if clear then print_string "\027[H\027[2J";
                    let requests = Client.num_field "requests" top in
                    let rps =
                      match (requests, !prev_requests) with
                      | Some now, Some prev when interval > 0.0 ->
                          Printf.sprintf "%.1f req/s" ((now -. prev) /. interval)
                      | _ -> "-"
                    in
                    prev_requests := requests;
                    Printf.printf "crimson top — %s   uptime %ss   active %s   requests %s   %s\n"
                      (Wire.addr_to_string addr)
                      (fnum (Client.num_field "uptime_s" top))
                      (fnum (Client.num_field "active" top))
                      (fnum requests) rps;
                    let gauges = [ "metrics"; "gauges" ] in
                    let counters = [ "metrics"; "counters" ] in
                    Printf.printf
                      "runtime: rss %s   heap %s   gc %s minor / %s major   fds %s   errors %s\n\n"
                      (mib (metric stats (gauges @ [ "runtime.rss_bytes" ])))
                      (match metric stats (gauges @ [ "runtime.gc.heap_words" ]) with
                      | Some w -> mib (Some (w *. float_of_int (Sys.word_size / 8)))
                      | None -> "-")
                      (fnum (metric stats (gauges @ [ "runtime.gc.minor_collections" ])))
                      (fnum (metric stats (gauges @ [ "runtime.gc.major_collections" ])))
                      (fnum (metric stats (gauges @ [ "runtime.fds.open" ])))
                      (fnum (metric stats (counters @ [ "server.errors" ])));
                    (match Json.member "sessions" top with
                    | Some (Json.List []) -> print_endline "(no live sessions)"
                    | Some (Json.List sessions) ->
                        let t =
                          TP.create
                            ~columns:
                              [
                                ("session", TP.Right); ("worker", TP.Right);
                                ("tree", TP.Left); ("req", TP.Right);
                                ("ms", TP.Right); ("pages", TP.Right);
                                ("bytes", TP.Right); ("age", TP.Right);
                                ("last", TP.Left);
                              ]
                        in
                        List.iter
                          (fun s ->
                            let str keys =
                              match path s keys with
                              | Some (Json.Str v) -> v
                              | Some (Json.Num v) -> Printf.sprintf "%.0f" v
                              | _ -> "-"
                            in
                            let ms =
                              match metric s [ "ms" ] with
                              | Some v -> Printf.sprintf "%.1f" v
                              | None -> "-"
                            in
                            let age =
                              match metric s [ "age_s" ] with
                              | Some v -> Printf.sprintf "%.0fs" v
                              | None -> "-"
                            in
                            let last = str [ "last" ] in
                            let last =
                              if String.length last > 40 then String.sub last 0 40 ^ "…"
                              else last
                            in
                            TP.add_row t
                              [
                                str [ "session" ]; str [ "worker" ]; str [ "tree" ];
                                str [ "requests" ]; ms; str [ "pages" ];
                                str [ "bytes_out" ]; age; last;
                              ])
                          sessions;
                        print_string (TP.render t)
                    | _ -> print_endline "(malformed TOP reply)");
                    (match Json.member "entries" slow with
                    | Some (Json.List (_ :: _ as entries)) ->
                        print_endline "\nslowlog (most recent):";
                        List.iter
                          (fun e ->
                            match Trace.record_of_json e with
                            | Ok r ->
                                let line =
                                  match List.assoc_opt "line" r.Trace.meta with
                                  | Some (Json.Str s) -> s
                                  | _ -> "(?)"
                                in
                                Printf.printf "  %8.3fms  %s\n"
                                  (Trace.root_elapsed_ms r) line
                            | Error _ -> ())
                          entries
                    | _ -> ());
                    `Ok ()
                  end
                in
                let rec loop n =
                  match frame () with
                  | `Ok () ->
                      if iterations > 0 && n + 1 >= iterations then `Ok ()
                      else begin
                        flush stdout;
                        Unix.sleepf (Float.max 0.1 interval);
                        loop (n + 1)
                      end
                  | other -> other
                in
                loop 0))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "A live monitor for $(b,crimson serve): polls TOP, STATS and SLOWLOG and \
          renders the active sessions (cost hogs first, with cumulative requests, \
          wall time, pages and reply bytes), process runtime gauges (RSS, heap, GC, \
          file descriptors) and the most recent slow queries.";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc:"Live session/cost monitor for a running crimson server" ~man)
    Term.(ret (const run $ logging $ to_addr $ interval $ iterations))

(* ------------------------------ health ------------------------------ *)

let health_cmd =
  let to_addr =
    Arg.(required & opt (some string) None
         & info [ "to"; "obs" ] ~docv:"ADDR"
             ~doc:("Observability endpoint address (what the server was given \
                    as $(b,--obs-listen)): " ^ listen_doc))
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw /healthz JSON body.")
  in
  let get_path =
    Arg.(value & opt (some string) None
         & info [ "get" ] ~docv:"PATH"
             ~doc:"Fetch an arbitrary endpoint path ($(b,/metrics), $(b,/varz), \
                   $(b,/slowlog)) and print the body verbatim instead of probing \
                   $(b,/healthz).")
  in
  let run _ to_addr json get_path =
    guarded (fun () ->
        match Wire.parse_addr to_addr with
        | Error msg -> fail "bad --to address: %s" msg
        | Ok addr -> (
            match get_path with
            | Some path -> (
                match Http_client.get addr path with
                | Error msg -> fail "cannot reach %s: %s" path msg
                | Ok { Http_client.status; body; _ } ->
                    print_string body;
                    if status = 200 then `Ok ()
                    else fail "HTTP %d from %s" status path)
            | None -> (
                match Http_client.get addr "/healthz" with
                | Error msg -> fail "cannot reach /healthz: %s" msg
                | Ok { Http_client.status; body; _ } ->
                    let module Json = Crimson_obs.Json in
                    (if json then print_string body
                     else
                       match Json.parse body with
                       | exception Json.Parse_error _ -> print_string body
                       | detail ->
                           let num_of = function
                             | Some (Json.Num v) -> Printf.sprintf "%.3f" v
                             | _ -> "-"
                           in
                           Printf.printf "healthy: %b\n" (status = 200);
                           (match Json.member "workers" detail with
                           | Some (Json.List ws) ->
                               List.iter
                                 (fun w ->
                                   let wid =
                                     match Json.member "worker" w with
                                     | Some (Json.Num v) ->
                                         Printf.sprintf "%.0f" v
                                     | _ -> "?"
                                   in
                                   let stalled =
                                     match Json.member "stalled" w with
                                     | Some (Json.Bool true) -> "STALLED"
                                     | _ -> "ok"
                                   in
                                   let reason =
                                     match Json.member "reason" w with
                                     | Some (Json.Str r) -> "  (" ^ r ^ ")"
                                     | _ -> ""
                                   in
                                   Printf.printf
                                     "worker %s: %s  last beat %ss ago%s\n" wid
                                     stalled
                                     (num_of (Json.member "last_beat_s" w))
                                     reason)
                                 ws
                           | _ -> ()));
                    if status = 200 then `Ok ()
                    else fail "unhealthy (HTTP %d from /healthz)" status)))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Probe a running server's observability endpoint (started with \
          $(b,serve --obs-listen)). By default fetches $(b,/healthz) and exits \
          non-zero when the watchdog reports any worker stalled; $(b,--get) \
          fetches any other endpoint path and prints the body verbatim, so \
          scripts can scrape $(b,/metrics) without curl.";
    ]
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Probe a running server's /healthz (exit non-zero when stalled)" ~man)
    Term.(ret (const run $ logging $ to_addr $ json_flag $ get_path))

(* ----------------------------- http-get ----------------------------- *)

let http_get_cmd =
  let to_addr =
    Arg.(required & opt (some string) None
         & info [ "to" ] ~docv:"ADDR"
             ~doc:("Gateway address (what the server was given as \
                    $(b,--http-listen)): " ^ listen_doc))
  in
  let paths =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"PATH"
             ~doc:"Endpoint paths ($(b,/v1/trees), \
                   $(b,/v1/trees/1/overview?depth=2), ...). Several paths \
                   ride one keep-alive connection.")
  in
  let etag =
    Arg.(value & opt (some string) None
         & info [ "if-none-match" ] ~docv:"ETAG"
             ~doc:"Send $(b,If-None-Match) with every request; a fresh \
                   resource answers $(b,304 Not Modified) with no body.")
  in
  let include_flag =
    Arg.(value & flag
         & info [ "i"; "include" ]
             ~doc:"Print the status line and response headers before each \
                   body.")
  in
  let run _ to_addr etag include_headers paths =
    guarded (fun () ->
        match Wire.parse_addr to_addr with
        | Error msg -> fail "bad --to address: %s" msg
        | Ok addr -> (
            match Http_client.connect addr with
            | Error msg -> fail "cannot connect: %s" msg
            | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> Http_client.close conn)
                  (fun () ->
                    let headers =
                      match etag with
                      | Some tag -> [ ("If-None-Match", tag) ]
                      | None -> []
                    in
                    let failures = ref 0 in
                    List.iter
                      (fun path ->
                        match Http_client.request conn ~headers path with
                        | Error msg ->
                            incr failures;
                            Printf.eprintf "crimson: %s: %s\n" path msg
                        | Ok r ->
                            if include_headers then begin
                              Printf.printf "HTTP %d\n" r.Http_client.status;
                              List.iter
                                (fun (k, v) -> Printf.printf "%s: %s\n" k v)
                                r.Http_client.headers;
                              print_newline ()
                            end;
                            print_string r.Http_client.body)
                      paths;
                    if !failures = 0 then `Ok ()
                    else fail "%d request(s) failed" !failures)))
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Fetch endpoints from a running data-service gateway (started with \
          $(b,serve --http-listen)) without curl. All paths are requested \
          over a single keep-alive connection, in order; $(b,--if-none-match) \
          drives the gateway's conditional-GET path so scripts can observe \
          ETag revalidation ($(b,304)).";
    ]
  in
  Cmd.v
    (Cmd.info "http-get"
       ~doc:"Fetch /v1 endpoints from a running gateway (keep-alive, ETags)"
       ~man)
    Term.(ret (const run $ logging $ to_addr $ etag $ include_flag $ paths))

(* ----------------------------- collection --------------------------- *)

module Collection = Crimson_collection.Collection

let coll_arg =
  let doc = "Collection name." in
  Arg.(required & opt (some string) None & info [ "c"; "collection" ] ~docv:"NAME" ~doc)

(* One Newick file may carry many replicates (one ';'-terminated tree
   per line is the common bootstrap output shape); parse them all. *)
let parse_trees_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char ';' text
  |> List.filter_map (fun seg ->
         let s = String.trim seg in
         if s = "" then None else Some (Newick.parse (s ^ ";")))

let coll_guarded f =
  try guarded f
  with Collection.Collection_error msg -> fail "%s" msg

let collection_add_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Newick files; each may hold several ';'-terminated trees \
               (bootstrap replicates).")
  in
  let run _ dir coll files =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            let trees = List.concat_map parse_trees_file files in
            match trees with
            | [] -> fail "no trees found in the input files"
            | first :: _ ->
                let c =
                  match Collection.open_name repo coll with
                  | c -> c
                  | exception Collection.Collection_error _ ->
                      let taxa =
                        Array.to_list (Tree.leaves first)
                        |> List.filter_map (Tree.name first)
                      in
                      let c = Collection.create repo ~name:coll ~taxa in
                      Printf.printf "created collection %s (%d taxa)\n" coll
                        (Collection.n_taxa c);
                      c
                in
                List.iter
                  (fun tree ->
                    let r = Collection.ingest c tree in
                    Printf.printf
                      "member %d (%s): %d clades, %d new, %s, %d bytes\n"
                      r.Collection.member r.Collection.member_name
                      r.Collection.clades r.Collection.new_bips
                      (if r.Collection.delta then "delta" else "full")
                      r.Collection.enc_bytes)
                  trees;
                let s = Collection.stats c in
                Printf.printf "collection %s: %d trees, %d bipartitions, %.2fx vs naive\n"
                  coll s.Collection.s_trees s.Collection.s_dict_entries
                  (Collection.ratio s);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "add" ~doc:"Ingest trees into a collection (created on first add)")
    Term.(ret (const run $ logging $ repo_arg $ coll_arg $ files))

let collection_list_cmd =
  let run _ dir =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            match Collection.list_all repo with
            | [] ->
                print_endline "no collections";
                `Ok ()
            | colls ->
                List.iter
                  (fun (_, name) ->
                    let c = Collection.open_name repo name in
                    let s = Collection.stats c in
                    Printf.printf
                      "%-20s %5d trees %5d taxa %6d bips (%d shared) %8.2fx\n" name
                      s.Collection.s_trees s.Collection.s_taxa
                      s.Collection.s_dict_entries s.Collection.s_shared_entries
                      (Collection.ratio s))
                  colls;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List collections with storage statistics")
    Term.(ret (const run $ logging $ repo_arg))

let collection_consensus_cmd =
  let threshold =
    Arg.(value & opt float 0.5
         & info [ "threshold" ] ~docv:"T"
             ~doc:"Keep clades with support > $(docv) (in [0.5, 1]; 1.0 gives \
                   the strict consensus).")
  in
  let run _ dir coll threshold fmt out =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            let c = Collection.open_name repo coll in
            let tree, elapsed_ms, pages =
              Crimson_obs.Profile.measure (fun () -> Collection.consensus ~threshold c)
            in
            emit_tree fmt out tree;
            ignore
              (Repo.record_query repo ~elapsed_ms ~pages
                 ~text:(Printf.sprintf "consensus('%s', %g)" coll threshold)
                 ~result:(Printf.sprintf "%d nodes" (Tree.node_count tree)));
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "consensus"
       ~doc:"Majority-rule/strict consensus off the bipartition dictionary")
    Term.(ret (const run $ logging $ repo_arg $ coll_arg $ threshold $ output_format
             $ output_file))

let collection_rf_cmd =
  let run _ dir coll =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            let c = Collection.open_name repo coll in
            let m, elapsed_ms, pages =
              Crimson_obs.Profile.measure (fun () -> Collection.rf_matrix c)
            in
            let names = Array.of_list (Collection.member_names c) in
            Array.iteri
              (fun i row ->
                Printf.printf "%-12s" (if i < Array.length names then names.(i) else "");
                Array.iter (fun v -> Printf.printf " %4d" v) row;
                print_newline ())
              m;
            ignore
              (Repo.record_query repo ~elapsed_ms ~pages
                 ~text:(Printf.sprintf "rfmatrix('%s')" coll)
                 ~result:(Printf.sprintf "%dx%d matrix" (Array.length m) (Array.length m)));
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "rf" ~doc:"Pairwise Robinson-Foulds matrix over the id sets")
    Term.(ret (const run $ logging $ repo_arg $ coll_arg))

let collection_support_cmd =
  let run _ dir coll =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            let c = Collection.open_name repo coll in
            let n = Collection.n_trees c in
            List.iter (fun (names, count) ->
                Printf.printf "%4d/%d  {%s}\n" count n (String.concat "," names))
              (Collection.support c);
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "support" ~doc:"Per-bipartition support counts, highest first")
    Term.(ret (const run $ logging $ repo_arg $ coll_arg))

let collection_drop_cmd =
  let run _ dir coll =
    coll_guarded (fun () ->
        with_repo dir (fun repo ->
            Collection.drop repo coll;
            Printf.printf "dropped collection %s\n" coll;
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "drop" ~doc:"Remove a collection: catalog, dictionary and members")
    Term.(ret (const run $ logging $ repo_arg $ coll_arg))

let collection_cmd =
  let doc = "Tree collections: shared-bipartition storage and bulk queries" in
  let man =
    [
      `S Manpage.s_description;
      `P "A collection stores many trees over one shared taxon set — bootstrap \
          replicates, per-algorithm reconstructions — as a reference-counted \
          bipartition dictionary plus per-tree dictionary-id lists \
          (delta-encoded against the first member when that is smaller). \
          Consensus, support and Robinson-Foulds queries run off the \
          dictionary without materialising member trees; the same queries are \
          served over the wire as CONSENSUS/SUPPORT/RFMATRIX/COLLSTATS.";
    ]
  in
  Cmd.group (Cmd.info "collection" ~doc ~man)
    [
      collection_add_cmd; collection_list_cmd; collection_consensus_cmd;
      collection_rf_cmd; collection_support_cmd; collection_drop_cmd;
    ]

(* ------------------------------- main ------------------------------ *)

let () =
  let doc = "Crimson: data management for evaluating phylogenetic tree reconstruction" in
  let info = Cmd.info "crimson" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        load_cmd; append_species_cmd; list_cmd; delete_cmd; show_cmd; stats_cmd;
        lca_cmd; clade_cmd; project_cmd; match_cmd; query_cmd; profile_cmd;
        simulate_cmd; benchmark_cmd; history_cmd; serve_cmd; connect_cmd;
        slowlog_cmd; top_cmd; health_cmd; http_get_cmd; collection_cmd;
      ]
  in
  exit (Cmd.eval group)
