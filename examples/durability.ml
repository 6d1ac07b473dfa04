(* Durability: crash-atomic checkpoints for the repositories.

   The original Crimson delegated durability to its host RDBMS; this
   reproduction ships its own write-ahead log. The example opens a
   durable repository, loads a gold standard, then simulates a crash
   that leaves a committed-but-unapplied checkpoint batch in the
   repository's crimson.wal — and shows the next open repairing it
   transparently.

   Run with: dune exec examples/durability.exe *)

module Tree = Crimson_tree.Tree
module Pager = Crimson_storage.Pager
module Wal = Crimson_storage.Wal
module Page = Crimson_storage.Page
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Projection = Crimson_core.Projection
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "crimson_durability" in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;

  (* 1. A durable repository: every flush and dirty eviction is a
     WAL-protected checkpoint. *)
  let rng = Prng.create 7 in
  let gold = Models.birth_death ~rng ~leaves:150 () in
  let repo = Repo.open_dir ~durable:true dir in
  ignore (Loader.load_tree ~f:8 repo ~name:"gold" gold);
  Repo.close repo;
  Printf.printf "loaded 150-species gold standard into a durable repository\n";

  (* 2. Simulate a crash: a checkpoint committed its batch to the WAL
     and died before applying it to the page files. We fabricate that
     state directly: capture a page's current ("new") content, revert
     the page file to an "old" value, and leave the new image committed
     in crimson.wal, tagged with the file it belongs to. *)
  let heap_file = Filename.concat dir "nodes.heap" in
  let p = Pager.create_file heap_file in
  let victim_page = 1 in
  let new_image = Page.fresh () in
  Pager.with_page p victim_page (fun b -> Bytes.blit b 0 new_image 0 Page.size);
  Pager.with_page_mut p victim_page (fun b -> Bytes.fill b 0 Page.size '\xAA');
  Pager.flush p;
  Pager.close p;
  let wal_file = Filename.concat dir "crimson.wal" in
  let wal = Wal.open_path wal_file in
  Wal.append_entries wal [ { Wal.file = "nodes.heap"; page_id = victim_page; image = new_image } ];
  Wal.close wal;
  Printf.printf "simulated crash: page %d of nodes.heap is stale on disk, repair lives in %s\n"
    victim_page wal_file;

  (* 3. Reopen: recovery replays the committed batch before anything
     reads the file, and queries see consistent data. *)
  let repo = Repo.open_dir ~durable:true dir in
  let stored = Stored_tree.open_name repo "gold" in
  let sample = Crimson_core.Sampling.uniform stored ~rng ~k:8 in
  let truth = Projection.project stored sample in
  Printf.printf "after recovery: tree has %d nodes; projected %d species into %d nodes\n"
    (Stored_tree.node_count stored) 8 (Tree.node_count truth);
  let wal_size = (Unix.stat wal_file).Unix.st_size in
  Printf.printf "WAL after recovery: %d bytes (cleared)\n" wal_size;
  Repo.close repo
