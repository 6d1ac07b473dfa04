module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Layered = Crimson_label.Layered
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Clustered = Crimson_storage.Clustered
module Btree = Crimson_storage.Btree

let src = Logs.Src.create "crimson.loader" ~doc:"Crimson data loader"

module Log = (val Logs.src_log src : Logs.LOG)

exception Load_error of string

let load_error fmt = Printf.ksprintf (fun s -> raise (Load_error s)) fmt

type report = {
  tree : Stored_tree.t;
  node_rows : int;
  layer_rows : int;
  subtree_rows : int;
  species_rows : int;
}

let next_tree_id repo =
  (* Same rightmost-key probe as Repo.next_query_id: the max live id is
     under the last by_id key, no table scan needed. *)
  match Table.last_entry (Repo.trees repo) ~index:"by_id" with
  | Some (_, row) -> Record.get_int row Schema.Trees.c_id + 1
  | None -> 0

let name_taken repo name =
  Table.find (Repo.trees repo) ~index:"by_name" ~key:(Schema.Trees.key_name name)
  <> None

(* ------------------------------ Species ----------------------------- *)

(* A tree's species sequences are one sorted group of the clustered
   [species] table: rows (tree, row, name, chunk, seq) in (name, chunk)
   order, each run of them keyed in the directory by its first row. *)

module R = Record.Reader

let species_key name chunk = Key.cat [ Key.text name; Key.int chunk ]

let compare_piece (a, i, _) (b, j, _) =
  match String.compare a b with 0 -> Int.compare i j | c -> c

(* The (name, chunk, piece) rows of distinct (name, sequence) pairs, in
   run order: each sequence cut into pieces that fit a row beside its
   name. A sequence that fits one row is not copied. *)
let species_pieces pairs =
  List.concat_map
    (fun (name, seq) ->
      let size = Schema.Species.chunk_bytes name and n = String.length seq in
      if n <= size then [ (name, 0, seq) ]
      else
        List.init ((n + size - 1) / size) (fun i ->
            (name, i, String.sub seq (i * size) (min size (n - (i * size))))))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) pairs)

(* Write [pieces], in run order, as tree [tree]'s group: heap appends in
   key order, one directory row per run of them. *)
let write_species repo ~tree pieces =
  let pieces = Array.of_list pieces in
  Repo.forget_species_run repo ~tree;
  ignore
    (Clustered.write (Repo.clustered repo Repo.species) [ tree ] ~rows:(Array.length pieces)
       ~first_key:(fun i ->
         let name, chunk, _ = pieces.(i) in
         species_key name chunk)
       (fun i ->
         let name, chunk, piece = pieces.(i) in
         Record.[| VInt tree; VInt i; VText name; VInt chunk; VBlob piece |]));
  Array.length pieces

let drop_species repo ~tree =
  Repo.forget_species_run repo ~tree;
  Clustered.delete (Repo.clustered repo Repo.species) [ tree ]

(* Every group of tree [tree] in every clustered table: its node rows,
   name run, layers, subtree roots, summaries and species run. One
   directory prefix scan per table; no other tree's runs are read. *)
let drop_groups repo ~tree =
  drop_species repo ~tree;
  List.iter
    (fun table -> Clustered.delete (Repo.clustered repo table) [ tree ])
    [ Repo.nodes; Repo.names; Repo.layers; Repo.subtrees; Repo.summaries ]

(* [f name chunk piece] on the group's rows from row [lo] to [hi], in
   order, while it answers [true]; [piece] is [""] for a name [wanted]
   refuses. *)
let scan_species ?(wanted = fun _ -> true) ?hi g ~lo f =
  let size = Clustered.size g in
  Clustered.scan g ~lo ~hi:(Option.value hi ~default:(size - 1))
    (fun id r ->
      let name = R.text r in
      let chunk = R.int r in
      (id, name, chunk, if wanted name then R.text r else ""))
    (fun (id, name, chunk, piece) -> if f name chunk piece then id + 1 else size)

let rows_of g =
  let rows = ref [] in
  scan_species g ~lo:0 (fun name chunk piece ->
      rows := (name, chunk, piece) :: !rows;
      true);
  List.rev !rows

let refuse_twice names =
  let rec distinct = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then load_error "species %S is given twice" a;
        distinct rest
    | [ _ ] | [] -> ()
  in
  distinct (List.sort String.compare names)

(* Every way a load can be refused, checked against the in-memory tree
   [t] (preorder ids, its names [sorted] as the run will hold them)
   before the first insert, so that a refused load writes nothing. The
   species checks read no page: a species resolves, as the stored
   lookup would, to the lowest id carrying its name. *)
let check_load repo ~name ~tree_id t sorted species =
  let too_long what bytes key limit =
    load_error "%s of %d bytes is too long: its key takes %d bytes, at most %d" what bytes
      key limit
  in
  let key = Schema.Trees.key_name name in
  if String.length key > Btree.max_key then
    too_long "the tree name" (String.length name) (String.length key) Btree.max_key;
  (* A name with its node id keys a name block's directory row, and a
     species name with a chunk number a species run's. *)
  let bound =
    List.fold_left
      (fun acc table -> min acc (Clustered.max_key (Repo.clustered repo table) [ tree_id ]))
      max_int [ Repo.names; Repo.species ]
  in
  Array.iter
    (fun v ->
      let node_name = Option.get (Tree.name t v) in
      let bytes = String.length node_name in
      if bytes > Name_run.max_name then
        load_error "node %d's name of %d bytes is too long: at most %d" v bytes
          Name_run.max_name;
      (* Escaping at most doubles a name. *)
      if (2 * bytes) + 10 > bound then begin
        let key = String.length (Key.cat [ Key.text node_name; Key.int v ]) in
        if key > bound then too_long (Printf.sprintf "node %d's name" v) bytes key bound
      end)
    sorted;
  List.iter
    (fun (species, _) ->
      match Name_run.lowest t sorted species with
      | Some v when Tree.is_leaf t v -> ()
      | Some _ -> load_error "species %S names an internal node" species
      | None -> load_error "species %S is not a leaf of tree %S" species name)
    species;
  refuse_twice (List.map fst species)

let load_tree_internal ?(f = 8) repo ~name tree ~species =
  if name_taken repo name then load_error "a tree named %S is already loaded" name;
  let tree_id = next_tree_id repo in
  (* Renumber to dense preorder ids so that parents precede children. *)
  let t, _mapping = Ops.copy_with_mapping tree in
  let sorted = Name_run.sort t in
  check_load repo ~name ~tree_id t sorted species;
  Log.info (fun m ->
      m "loading tree %S (#%d): %d nodes, f=%d" name tree_id (Tree.node_count tree) f);
  let ix = Layered.build ~f t in
  let root_dist = Tree.root_distance t in
  (* Leaf ordinal intervals per node: leaves numbered in preorder. Ids
     are preorder ranks, so a subtree is the id range [v, subtree_end v]
     and its end is the end of its last child's subtree. *)
  let n = Tree.node_count t in
  let leaf_lo = Array.make n max_int in
  let leaf_hi = Array.make n (-1) in
  let subtree_end = Array.init n Fun.id in
  let ord = ref 0 in
  Array.iter
    (fun v ->
      if Tree.is_leaf t v then begin
        leaf_lo.(v) <- !ord;
        leaf_hi.(v) <- !ord + 1;
        incr ord
      end)
    (Tree.preorder t);
  Array.iter
    (fun v ->
      Tree.iter_children t v (fun c ->
          leaf_lo.(v) <- min leaf_lo.(v) leaf_lo.(c);
          leaf_hi.(v) <- max leaf_hi.(v) leaf_hi.(c);
          subtree_end.(v) <- max subtree_end.(v) subtree_end.(c)))
    (Tree.postorder t);
  let n_leaves = !ord in
  (* Node rows. *)
  let node_row v =
    [|
      Record.VInt tree_id;
      Record.VInt v;
      Record.VInt (Tree.parent t v);
      Record.VInt (Layered.raw_edge_index ix ~layer:0 v);
      Record.VText (match Tree.name t v with Some s -> s | None -> "");
      Record.VFloat (Tree.branch_length t v);
      Record.VFloat root_dist.(v);
      Record.VInt (Layered.raw_sub ix ~layer:0 v);
      Record.VInt (Layered.raw_local_depth ix ~layer:0 v);
      Record.VInt leaf_lo.(v);
      Record.VInt leaf_hi.(v);
      Record.VInt subtree_end.(v);
    |]
  in
  (* A load larger than the pool commits under pressure before its
     catalog row exists, so a crash can leave groups under this id that
     no live tree owns. They go before the first insert. *)
  drop_groups repo ~tree:tree_id;
  (* Every table below is clustered: rows go in id order, one group per
     tree or per (tree, layer), and the directory records where each
     run of them landed. A [nodes] run keeps its first row's [leaf_lo]
     as its mark, for leaf ordinals; a [names] block its first name. *)
  let clustered = Repo.clustered repo in
  let nodes =
    Clustered.write (clustered Repo.nodes) [ tree_id ] ~rows:n
      ~mark:(fun v -> leaf_lo.(v))
      (fun v ->
        if v > 0 && v mod 100_000 = 0 then
          Log.info (fun m -> m "  … %d node rows written" v);
        node_row v)
  in
  let names = Name_run.write repo ~tree:tree_id t sorted in
  (* Higher layers and subtree roots. *)
  let layer_rows = ref 0 in
  let subtree_rows = ref 0 in
  for layer = 0 to Layered.layer_count ix - 1 do
    let rows = Layered.layer_node_count ix ~layer in
    if layer > 0 then begin
      ignore
        (Clustered.write (clustered Repo.layers) [ tree_id; layer ] ~rows (fun v ->
             Record.
               [|
                 VInt tree_id; VInt layer; VInt v; VInt (Layered.raw_parent ix ~layer v);
                 VInt (Layered.raw_edge_index ix ~layer v);
                 VInt (Layered.raw_sub ix ~layer v);
                 VInt (Layered.raw_local_depth ix ~layer v);
               |]));
      layer_rows := !layer_rows + rows
    end;
    let subs = Layered.subtree_count ix ~layer in
    ignore
      (Clustered.write (clustered Repo.subtrees) [ tree_id; layer ] ~rows:subs (fun s ->
           Record.[| VInt tree_id; VInt layer; VInt s; VInt (Layered.raw_sub_root ix ~layer s) |]));
    subtree_rows := !subtree_rows + subs
  done;
  (* Summary clusters ride in the same batch, before the catalog row:
     a visible tree always has its rollups. *)
  let summary_rows = Summary.write repo ~tree_id (Summary.build ix t) in
  (* Tree metadata last, so a crash mid-load leaves no visible tree. *)
  ignore
    (Table.insert (Repo.trees repo)
       [|
         Record.VInt tree_id;
         Record.VText name;
         Record.VInt f;
         Record.VInt (Layered.layer_count ix);
         Record.VInt n;
         Record.VInt n_leaves;
       |]);
  let stored = Stored_tree.open_id repo tree_id in
  (* Hand back a warm handle: the node runs and the name run just
     written, the leaf maps, and views of the lowest ids — the ones the
     first queries read — from rows still in memory, so no page is read
     for any of them. *)
  Stored_tree.prime stored nodes ~names ~subtree_end (fun v ->
      Node_view.of_row (node_row v));
  (* The species run goes last, in the same batch. Written before the
     catalog row instead, it left the primed views young at the end of
     the load, and the first reads on the handle paid their promotion:
     ingest_mixed's read p99 doubled. *)
  let species_rows = write_species repo ~tree:tree_id (species_pieces species) in
  Repo.commit repo;
  Log.info (fun m ->
      m "loaded %S: %d node rows, %d layer rows, %d subtree rows, %d summary rows, %d species rows"
        name n !layer_rows !subtree_rows summary_rows species_rows);
  {
    tree = stored;
    node_rows = n;
    layer_rows = !layer_rows;
    subtree_rows = !subtree_rows;
    species_rows;
  }

let load_tree ?f ?(species = []) repo ~name tree =
  load_tree_internal ?f repo ~name tree ~species

let append_species repo tree pairs =
  (* No pairs, no merge: the run stays as it is. *)
  if pairs = [] then 0
  else
    let tree_id = Stored_tree.id tree in
    let old = rows_of (Repo.species_run repo ~tree:tree_id) in
    let stored = Hashtbl.create 16 in
    List.iter (fun (name, _, _) -> Hashtbl.replace stored name ()) old;
    List.iter
      (fun (name, _) ->
        (match Stored_tree.node_by_name tree name with
        | Some node when Stored_tree.is_leaf tree node -> ()
        | Some _ -> load_error "species %S names an internal node" name
        | None -> load_error "species %S is not a leaf of tree %S" name (Stored_tree.name tree));
        if Hashtbl.mem stored name then load_error "species %S already has sequence data" name)
      pairs;
    refuse_twice (List.map fst pairs);
    (* The merged run replaces the old one in the same batch: a crash
       leaves one or the other. *)
    let added = species_pieces pairs in
    drop_species repo ~tree:tree_id;
    ignore (write_species repo ~tree:tree_id (List.merge compare_piece old added));
    Repo.commit repo;
    let rows = List.length added in
    Log.info (fun m -> m "appended %d species rows to %S" rows (Stored_tree.name tree));
    rows

(* The runs that can hold the name's chunks are found in memory and its
   first row by a binary search of the first one's page; the scan from
   there joins the chunks, which may straddle runs, until the name
   changes or the last of those runs ends: no key of a later name is at
   most (name, max_int), so a page past them is never read. *)
let species_sequence repo tree name =
  let g = Repo.species_run repo ~tree:(Stored_tree.id tree) in
  match Clustered.below g (species_key name 0) with
  | -1 -> None
  | run -> (
      let parts = ref [] in
      scan_species g
        ~lo:(Clustered.seek g ~lo:run (fun r -> String.compare (R.text r) name))
        ~hi:(Clustered.run_end g (Clustered.below g (species_key name max_int)) - 1)
        ~wanted:(String.equal name)
        (fun n _ piece ->
          let c = String.compare n name in
          if c = 0 then parts := piece :: !parts;
          c <= 0);
      match !parts with
      | [] -> None
      | [ s ] -> Some s
      | parts -> Some (String.concat "" (List.rev parts)))

let species_names repo tree =
  let names = ref [] in
  scan_species
    (Repo.species_run repo ~tree:(Stored_tree.id tree))
    ~lo:0
    ~wanted:(fun _ -> false)
    (fun name _ _ ->
      (match !names with
      | last :: _ when String.equal last name -> ()
      | _ -> names := name :: !names);
      true);
  List.rev !names

let load_nexus ?f repo (doc : Crimson_formats.Nexus.t) =
  if doc.trees = [] then load_error "NEXUS document contains no trees";
  List.map
    (fun (name, tree) ->
      let leaf_names =
        Array.to_list (Tree.leaves tree)
        |> List.filter_map (fun l -> Tree.name tree l)
      in
      let covered (taxon, _) = List.mem taxon leaf_names in
      let species = List.filter covered doc.characters in
      load_tree_internal ?f repo ~name tree ~species)
    doc.trees

let fetch_tree stored =
  let n = Stored_tree.node_count stored in
  let b = Tree.Builder.create ~capacity:n () in
  (* Stored ids are preorder-dense: parents precede children, and sibling
     order is edge order, so inserting 0..n-1 reproduces ids exactly. *)
  let ids = Array.make n Tree.nil in
  (* One streaming read of the nodes table, past the view cache: a
     whole tree would only flush it. *)
  Stored_tree.scan stored ~lo:0 ~hi:(n - 1) (fun view ->
      let v = view.Node_view.node in
      let name = match view.Node_view.name with "" -> None | s -> Some s in
      let p = view.Node_view.parent in
      if p = Tree.nil then ids.(v) <- Tree.Builder.add_root ?name b
      else
        ids.(v) <-
          Tree.Builder.add_child ?name ~branch_length:view.Node_view.blen b
            ~parent:ids.(p);
      v + 1);
  let t = Tree.Builder.finish b in
  assert (Array.for_all2 ( = ) ids (Array.init n Fun.id));
  t

let delete_tree repo stored =
  let tree_id = Stored_tree.id stored in
  (* Metadata first so the tree disappears atomically from listings. *)
  (match
     Table.find (Repo.trees repo) ~index:"by_id" ~key:(Schema.Trees.key_id tree_id)
   with
  | Some (rid, _) -> ignore (Table.delete (Repo.trees repo) rid)
  | None -> ());
  drop_groups repo ~tree:tree_id;
  Repo.commit repo;
  Log.info (fun m -> m "deleted tree %S" (Stored_tree.name stored))

exception Bad_run of string

(* The species run check: the group's directory check; rows in strictly
   ascending (name, chunk) order, each name's chunks numbered from 0;
   each run keyed by its first row; each name a leaf of the tree. *)
let check_species stored g =
  match Clustered.check g ~rows:(Clustered.size g) with
  | Error _ as e -> e
  | Ok () -> (
      let fail fmt = Printf.ksprintf (fun s -> raise (Bad_run s)) fmt in
      let runs = Clustered.runs g in
      let row = ref 0 and run = ref 0 and prev = ref None in
      try
        scan_species g ~lo:0 ~wanted:(fun _ -> false) (fun name chunk _ ->
            if !run < Array.length runs && runs.(!run).first = !row then begin
              if runs.(!run).key <> species_key name chunk then
                fail "run %d's key is not its first row's" !run;
              incr run
            end;
            (match !prev with
            | Some (p, c) when String.equal p name ->
                if chunk <> c + 1 then
                  fail "row %d: chunk %d of %S follows chunk %d" !row chunk name c
            | Some (p, _) when String.compare p name > 0 ->
                fail "row %d: %S does not follow %S" !row name p
            | Some _ | None -> (
                if chunk <> 0 then fail "row %d: %S starts at chunk %d" !row name chunk;
                match Stored_tree.node_by_name stored name with
                | Some v when Stored_tree.is_leaf stored v -> ()
                | Some _ | None -> fail "%S is not a leaf of the tree" name));
            prev := Some (name, chunk);
            incr row;
            true);
        Ok ()
      with Bad_run s -> Error (Printf.sprintf "species (%d): %s" (Stored_tree.id stored) s))

(* The groups each live tree must have, with their row counts: its node
   count from the catalog; a layer's rows are the subtrees of the layer
   below, and a layer's summary rows its subtrees. *)
let check_runs repo =
  let clustered = Repo.clustered repo in
  let tables = [ Repo.nodes; Repo.layers; Repo.subtrees; Repo.summaries ] in
  let live = Stored_tree.list_all repo in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (id, _) ->
      let stored = Stored_tree.open_id repo id in
      let expect table key rows =
        Hashtbl.replace expected (Table.name (table repo), key) rows
      in
      expect Repo.nodes [ id ] (Stored_tree.node_count stored);
      let subtrees = ref 0 in
      for layer = 0 to Stored_tree.layer_count stored - 1 do
        if layer > 0 then expect Repo.layers [ id; layer ] !subtrees;
        subtrees := Clustered.size (Stored_tree.group stored Repo.subtrees ~layer);
        if layer = Stored_tree.layer_count stored - 1 then subtrees := 1;
        expect Repo.subtrees [ id; layer ] !subtrees;
        expect Repo.summaries [ id; layer ] !subtrees
      done)
    live;
  let problems = ref [] in
  List.iter
    (fun table ->
      let c = clustered table and name = Table.name (table repo) in
      List.iter
        (fun key ->
          match Hashtbl.find_opt expected (name, key) with
          | None ->
              problems :=
                Printf.sprintf "%s: runs of a group no live tree has: %s" name
                  (String.concat ", " (List.map string_of_int key))
                :: !problems
          | Some rows -> (
              Hashtbl.remove expected (name, key);
              match Clustered.check (Clustered.open_group c key) ~rows with
              | Ok () -> ()
              | Error e -> problems := e :: !problems))
        (Clustered.groups c))
    tables;
  Hashtbl.iter
    (fun (name, key) _ ->
      problems :=
        Printf.sprintf "%s: no runs for group %s" name
          (String.concat ", " (List.map string_of_int key))
        :: !problems)
    expected;
  (* Name runs and species runs: one group per live tree at most. *)
  List.iter
    (fun table ->
      List.iter
        (fun key ->
          match key with
          | [ id ] when List.mem_assoc id live -> ()
          | _ ->
              problems :=
                Printf.sprintf "%s: runs of a group no live tree has: %s"
                  (Table.name (table repo))
                  (String.concat ", " (List.map string_of_int key))
                :: !problems)
        (Clustered.groups (clustered table)))
    [ Repo.names; Repo.species ];
  (* Each live tree's name run, against the names its node rows hold,
     and its species run. *)
  List.iter
    (fun (id, _) ->
      let stored = Stored_tree.open_id repo id in
      let names = Array.make (Stored_tree.node_count stored) "" in
      let checked what check =
        match check () with
        | Ok () -> ()
        | Error e -> problems := e :: !problems
        | exception Crimson_storage.Error.Error e ->
            problems :=
              Printf.sprintf "%s (%d): %s" what id (Crimson_storage.Error.to_string e)
              :: !problems
      in
      checked "names" (fun () ->
          Stored_tree.scan stored ~lo:0 ~hi:(Array.length names - 1) (fun v ->
              names.(v.Node_view.node) <- v.Node_view.name;
              v.Node_view.node + 1);
          Name_run.check (Name_run.open_run repo ~tree:id) ~names);
      checked "species" (fun () ->
          check_species stored (Clustered.open_group (clustered Repo.species) [ id ])))
    live;
  List.sort compare !problems
