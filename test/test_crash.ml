(* Crash-safety harness: drive a fixed workload against a durable
   repository through a fault-injecting I/O backend, crash at every
   mutating operation, reopen through the real backend, and check the
   recovered state. The invariant is transactional: the workload is a
   sequence of committed steps (each ends in one [Repo.commit]), with
   checkpoints ([Repo.flush]) between some of them, and after any crash
   the surviving state must be an exact prefix of those steps — every
   committed step fully present, every uncommitted one fully absent,
   nothing in between. *)

module Io = Crimson_storage.Io
module Error = Crimson_storage.Error
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Projection = Crimson_core.Projection
module Tree = Crimson_tree.Tree
module Newick = Crimson_formats.Newick
module Collection = Crimson_collection.Collection

let check = Alcotest.check

let with_temp_dir f =
  let dir = Filename.temp_file "crimson" ".crash" in
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

(* ----------------------------- Workload ----------------------------- *)

(* Three transactions. Each ends in exactly one group commit (the
   loader commits once at the end of a load; the query step commits
   explicitly), so each is atomic under the WAL discipline. *)

let step_load repo =
  let fx = Helpers.figure1 () in
  ignore
    (Loader.load_tree ~f:2 repo ~name:"figure1" ~species:[ ("Bha", "ACGT") ]
       fx.tree)

let step_species repo =
  let stored = Stored_tree.open_name repo "figure1" in
  ignore (Loader.append_species repo stored [ ("Lla", "GGTT") ])

let step_queries repo =
  for i = 1 to 3 do
    ignore
      (Repo.record_query repo
         ~text:(Printf.sprintf "q%d" i)
         ~result:(Printf.sprintf "r%d" i))
  done;
  Repo.commit repo

(* Collection steps: ingest into the bipartition dictionary (including
   the delta-encoded replicate path), then an atomic create+drop swap.
   Each groups its writes with [~commit:false] so the step's final
   operation is its one commit. *)

let coll_t1 () = Newick.parse "((a,b),(c,d));"
let coll_t2 () = Newick.parse "((a,c),(b,d));"
let coll_taxa = [ "a"; "b"; "c"; "d" ]

let step_coll_create repo =
  let c = Collection.create ~commit:false repo ~name:"boot" ~taxa:coll_taxa in
  ignore (Collection.ingest ~commit:false c (coll_t1 ()));
  ignore (Collection.ingest c (coll_t2 ()))

let step_coll_ingest repo =
  let c = Collection.open_name repo "boot" in
  (* A replicate of member 0: exercises the dictionary-hit update path
     and the delta encoding under faults. *)
  ignore (Collection.ingest c (coll_t1 ()))

let step_coll_swap repo =
  let c = Collection.create ~commit:false repo ~name:"algs" ~taxa:coll_taxa in
  ignore (Collection.ingest ~commit:false c (coll_t2 ()));
  Collection.drop repo "boot"

let steps =
  [|
    step_load; step_species; step_queries; step_coll_create; step_coll_ingest;
    step_coll_swap;
  |]

let n_steps = Array.length steps

(* The steps after which the script checkpoints: the log then holds the
   batches of steps 1-3, and of steps 4-5, so faults land inside a
   checkpoint over several batches; the close checkpoints step 6. *)
let checkpoint_after = [ 3; 5 ]

(* Run the workload through [io]. Returns how many steps returned
   normally; a raised fault stops the run at that point, like the
   process dying there. *)
let run_workload ~io dir =
  let observed = ref 0 in
  let repo = ref None in
  (try
     let r = Repo.open_dir ~io ~durable:true dir in
     repo := Some r;
     Array.iter
       (fun step ->
         step r;
         incr observed;
         if List.mem !observed checkpoint_after then Repo.flush r)
       steps;
     Repo.close r;
     repo := None
   with
  | Io.Crash | Error.Error _ | Repo.Open_error _ -> ());
  (* After a simulated power loss the handle cannot flush; release its
     descriptors without touching the frozen backend. *)
  (match !repo with
  | Some r -> ( try Repo.abandon r with Io.Crash -> ())
  | None -> ());
  !observed

(* ---------------------------- Verification -------------------------- *)

(* Reopen through the real backend (recovery runs inside open) and
   measure which steps survived; check each surviving step is complete
   and internally consistent, not merely detectable, and end with the
   run check. *)
let verify ~label ~observed dir =
  let repo = Repo.open_dir ~durable:true dir in
  Fun.protect
    ~finally:(fun () -> Repo.close repo)
    (fun () ->
      let step1 =
        List.exists (fun (_, name) -> name = "figure1") (Stored_tree.list_all repo)
      in
      (* Step 1 present: the whole tree, its layers and its species row
         must be intact — a half-loaded tree is an invariant violation,
         not a shorter prefix. *)
      if step1 then begin
        let stored = Stored_tree.open_name repo "figure1" in
        if Stored_tree.node_count stored <> 8 then
          Alcotest.failf "%s: partial tree (%d/8 nodes)" label
            (Stored_tree.node_count stored);
        if Stored_tree.leaf_count stored <> 5 then
          Alcotest.failf "%s: partial leaves" label;
        if Loader.species_sequence repo stored "Bha" <> Some "ACGT" then
          Alcotest.failf "%s: species row missing from committed load" label;
        let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
        if Tree.node_count proj <> 5 then
          Alcotest.failf "%s: projection broken after recovery" label
      end;
      (* Step 2 replaces the species run with a merged one: either run,
         never a torn one. *)
      let step2 =
        step1
        &&
        let stored = Stored_tree.open_name repo "figure1" in
        match Loader.species_names repo stored with
        | [ "Bha" ] -> false
        | [ "Bha"; "Lla" ]
          when Loader.species_sequence repo stored "Bha" = Some "ACGT"
               && Loader.species_sequence repo stored "Lla" = Some "GGTT" ->
            true
        | names ->
            Alcotest.failf "%s: torn species run: [%s]" label (String.concat "; " names)
      in
      let history = Repo.history repo in
      (* Step 3 wrote three rows under one checkpoint: all or nothing. *)
      let step3 =
        match List.length history with
        | 3 -> true
        | 0 -> false
        | n -> Alcotest.failf "%s: torn query history (%d/3 rows)" label n
      in
      (* Collection steps. A surviving collection must be complete: every
         member decodes and the dictionary's occurrence counts equal the
         sum of the members' clade counts — a torn ingest (member row
         without its count bumps, or vice versa) fails here. *)
      let coll_complete name =
        let c = Collection.open_name repo name in
        let n = Collection.n_trees c in
        let decoded = ref 0 in
        for m = 0 to n - 1 do
          decoded := !decoded + Array.length (Collection.member_ids c m)
        done;
        let counted =
          List.fold_left (fun acc (_, k) -> acc + k) 0 (Collection.support c)
        in
        if !decoded <> counted then
          Alcotest.failf "%s: torn dictionary in %s (%d decoded, %d counted)"
            label name !decoded counted;
        ignore (Collection.consensus c);
        n
      in
      let colls = List.map snd (Collection.list_all repo) in
      let boot = List.mem "boot" colls and algs = List.mem "algs" colls in
      if boot && algs then
        Alcotest.failf "%s: boot survived its committed drop" label;
      let boot_trees = if boot then coll_complete "boot" else 0 in
      if boot && boot_trees <> 2 && boot_trees <> 3 then
        Alcotest.failf "%s: torn boot collection (%d trees)" label boot_trees;
      if algs && coll_complete "algs" <> 1 then
        Alcotest.failf "%s: torn algs collection" label;
      let step4 = algs || boot in
      let step5 = algs || boot_trees = 3 in
      let step6 = algs in
      let present =
        match (step1, step2, step3, step4, step5, step6) with
        | true, true, true, true, true, true -> 6
        | true, true, true, true, true, false -> 5
        | true, true, true, true, false, false -> 4
        | true, true, true, false, false, false -> 3
        | true, true, false, false, false, false -> 2
        | true, false, false, false, false, false -> 1
        | false, false, false, false, false, false -> 0
        | _ ->
            Alcotest.failf "%s: non-prefix state (%b,%b,%b,%b,%b,%b)" label step1
              step2 step3 step4 step5 step6
      in
      (* A step that returned committed durably; the step the fault
         interrupted may or may not have reached its commit point (a
         fault after the WAL commit record is a commit the caller never
         heard about). Anything else is lost or phantom data. *)
      if present < observed || present > min n_steps (observed + 1) then
        Alcotest.failf "%s: observed %d commits but recovered %d" label observed
          present;
      (* The clustered tables' runs cover every live tree's rows, each
         at its own rid, and nothing else. *)
      (match Loader.check_runs repo with
      | [] -> ()
      | problems -> Alcotest.failf "%s: %s" label (String.concat "; " problems));
      present)

(* ------------------------------ Matrix ------------------------------ *)

(* Size the matrix by running the workload once through a backend that
   only counts mutating operations. *)
let count_ops () =
  with_temp_dir (fun dir ->
      let io = Io.counting () in
      let observed = run_workload ~io dir in
      check Alcotest.int "fault-free workload completes" n_steps observed;
      Io.op_count io)

(* One line per matrix cell when CRIMSON_CRASH_LOG names a file — CI
   uploads it as a build artifact so a failing cell can be located
   without rerunning locally. *)
let test_matrix () =
  let total = count_ops () in
  if total < 20 then Alcotest.failf "workload too small to matter (%d ops)" total;
  let log = Buffer.create 4096 in
  Buffer.add_string log
    (Printf.sprintf "# crash matrix: %d fault points x 4 fault kinds\n" total);
  List.iter
    (fun (fault, fname) ->
      for at = 1 to total do
        let label = Printf.sprintf "%s@%d" fname at in
        with_temp_dir (fun dir ->
            let io = Io.faulty fault ~at in
            let observed = run_workload ~io dir in
            let present = verify ~label ~observed dir in
            Buffer.add_string log
              (Printf.sprintf "%s observed=%d recovered=%d check_runs=ok\n" label
                 observed present))
      done)
    [
      (Io.Fail_op, "fail");
      (Io.Torn_write, "torn");
      (Io.Crash_op, "crash");
      (Io.Power_cut, "power");
    ];
  match Sys.getenv_opt "CRIMSON_CRASH_LOG" with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Buffer.output_buffer oc log;
      close_out oc

(* Legitimate short writes are not faults: the stack's retry loops must
   absorb them and the workload must complete unharmed. *)
let test_short_writes () =
  with_temp_dir (fun dir ->
      let io = Io.short_writes ~every:3 in
      let observed = run_workload ~io dir in
      check Alcotest.int "workload completes over short writes" n_steps observed;
      ignore (verify ~label:"short-writes" ~observed dir))

(* A transient disk error while opening must surface as the typed
   [Open_error], leak nothing, and leave the directory retryable: the
   second open (the fault has already fired) and the full workload
   succeed. *)
let test_transient_open_failure () =
  with_temp_dir (fun dir ->
      let io = Io.faulty Io.Fail_op ~at:2 in
      (match Repo.open_dir ~io ~durable:true dir with
      | _ -> Alcotest.fail "expected the injected open failure"
      | exception Repo.Open_error _ -> ());
      let observed = run_workload ~io dir in
      check Alcotest.int "workload completes after retry" n_steps observed;
      ignore (verify ~label:"transient-open" ~observed dir))

(* --------------------------- kill -9 smoke --------------------------- *)

(* The in-process matrix proves the algebra; this proves the real thing:
   a forked child loads trees into a durable repository as fast as it
   can, the parent SIGKILLs it mid-load, reopens the directory and
   checks every surviving tree is whole. *)
let test_kill9_during_load () =
  with_temp_dir (fun dir ->
      let tree_nodes = 200 in
      match Unix.fork () with
      | 0 ->
          (* Child: load until killed. Never reach the parent's alcotest
             exit hooks. *)
          (try
             let repo = Repo.open_dir ~durable:true dir in
             let rng = Crimson_util.Prng.create 42 in
             let i = ref 0 in
             while true do
               let tree = Helpers.random_tree rng tree_nodes in
               ignore
                 (Loader.load_tree ~f:2 repo
                    ~name:(Printf.sprintf "T%d" !i)
                    tree);
               incr i
             done
           with _ -> ());
          Unix._exit 0
      | pid ->
          (* Let it commit a few loads, then pull the plug. *)
          Unix.sleepf 0.4;
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          let repo = Repo.open_dir ~durable:true dir in
          Fun.protect
            ~finally:(fun () -> Repo.close repo)
            (fun () ->
              let trees = Stored_tree.list_all repo in
              check Alcotest.bool "child committed at least one tree" true
                (List.length trees >= 1);
              List.iter
                (fun (_, name) ->
                  let stored = Stored_tree.open_name repo name in
                  if Stored_tree.node_count stored <> tree_nodes then
                    Alcotest.failf "tree %s half-loaded (%d/%d nodes)" name
                      (Stored_tree.node_count stored)
                      tree_nodes;
                  (* The round-trip exercises layers, nodes and leaves. *)
                  let t = Loader.fetch_tree stored in
                  if Tree.node_count t <> tree_nodes then
                    Alcotest.failf "tree %s does not round-trip" name)
                trees))

let () =
  Alcotest.run "crimson_crash"
    [
      ( "matrix",
        [
          Alcotest.test_case "every fault point" `Quick test_matrix;
          Alcotest.test_case "short writes" `Quick test_short_writes;
          Alcotest.test_case "transient open failure" `Quick test_transient_open_failure;
        ] );
      ( "e2e",
        [ Alcotest.test_case "kill -9 during load" `Quick test_kill9_during_load ] );
    ]
