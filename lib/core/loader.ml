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

(* Split a sequence into page-sized chunks. *)
let chunks_of seq =
  let n = String.length seq in
  let size = Schema.Species.chunk_size in
  let count = max 1 ((n + size - 1) / size) in
  List.init count (fun i -> (i, String.sub seq (i * size) (min size (n - (i * size)))))

let insert_species_rows repo ~tree_id pairs =
  let rows = ref 0 in
  List.iter
    (fun (name, seq) ->
      List.iter
        (fun (chunk, piece) ->
          ignore
            (Table.insert (Repo.species repo)
               [|
                 Record.VInt tree_id; Record.VText name; Record.VInt chunk;
                 Record.VBlob piece;
               |]);
          incr rows)
        (chunks_of seq))
    pairs;
  !rows

let has_species repo ~tree_id ~name =
  let found = ref false in
  Table.iter_index (Repo.species repo) ~index:"by_chunk"
    ~prefix:(Schema.Species.key_name ~tree:tree_id ~name) (fun _ _ ->
      found := true;
      false);
  !found

let validate_species_names tree pairs repo =
  List.iter
    (fun (name, _) ->
      (match Stored_tree.node_by_name tree name with
      | Some node when Stored_tree.is_leaf tree node -> ()
      | Some _ -> load_error "species %S names an internal node" name
      | None -> load_error "species %S is not a leaf of tree %S" name (Stored_tree.name tree));
      if has_species repo ~tree_id:(Stored_tree.id tree) ~name then
        load_error "species %S already has sequence data" name)
    pairs

(* Every way a load can be refused, checked against the in-memory tree
   [t] (preorder ids, its names [sorted] as the run will hold them)
   before the first insert, so that a refused load writes nothing. The
   species checks read no page: a species resolves, as the stored
   lookup would, to the lowest id carrying its name. *)
let check_load ~name ~tree_id t sorted species =
  let too_long what bytes key limit =
    load_error "%s of %d bytes is too long: its key takes %d bytes, at most %d" what bytes
      key limit
  in
  let key = Schema.Trees.key_name name in
  if String.length key > Btree.max_key then
    too_long "the tree name" (String.length name) (String.length key) Btree.max_key;
  Array.iter
    (fun v ->
      let bytes = String.length (Option.get (Tree.name t v)) in
      if bytes > Name_run.max_name then
        load_error "node %d's name of %d bytes is too long: at most %d" v bytes
          Name_run.max_name)
    sorted;
  List.iter
    (fun (species, _) ->
      (match Name_run.lowest t sorted species with
      | Some v when Tree.is_leaf t v -> ()
      | Some _ -> load_error "species %S names an internal node" species
      | None -> load_error "species %S is not a leaf of tree %S" species name);
      (* A chunk's key ends with its 8-byte number. *)
      let key = String.length (Schema.Species.key_name ~tree:tree_id ~name:species) + 8 in
      if key > Btree.max_key then
        too_long "a species name" (String.length species) key Btree.max_key)
    species;
  let rec distinct = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then load_error "species %S is given twice" a;
        distinct rest
    | [ _ ] | [] -> ()
  in
  distinct (List.sort String.compare (List.map fst species))

let load_tree_internal ?(f = 8) repo ~name tree ~species =
  if name_taken repo name then load_error "a tree named %S is already loaded" name;
  let tree_id = next_tree_id repo in
  (* Renumber to dense preorder ids so that parents precede children. *)
  let t, _mapping = Ops.copy_with_mapping tree in
  let sorted = Name_run.sort t in
  check_load ~name ~tree_id t sorted species;
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
  let species_rows = insert_species_rows repo ~tree_id species in
  Repo.flush repo;
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
  validate_species_names tree pairs repo;
  let rows = insert_species_rows repo ~tree_id:(Stored_tree.id tree) pairs in
  Repo.flush repo;
  Log.info (fun m -> m "appended %d species rows to %S" rows (Stored_tree.name tree));
  rows

let species_sequence repo tree name =
  let parts = ref [] in
  Table.iter_index (Repo.species repo) ~index:"by_chunk"
    ~prefix:(Schema.Species.key_name ~tree:(Stored_tree.id tree) ~name) (fun _ row ->
      parts := Record.get_blob row Schema.Species.c_seq :: !parts;
      true);
  match !parts with
  | [] -> None
  | parts -> Some (String.concat "" (List.rev parts))

let species_names repo tree =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Table.scan (Repo.species repo) (fun _ row ->
      if Record.get_int row Schema.Species.c_tree = Stored_tree.id tree then begin
        let name = Record.get_text row Schema.Species.c_name in
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          acc := name :: !acc
        end
      end);
  List.sort String.compare !acc

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
  let clustered = Repo.clustered repo in
  Clustered.delete (clustered Repo.nodes) [ tree_id ];
  Clustered.delete (clustered Repo.names) [ tree_id ];
  for layer = 0 to Stored_tree.layer_count stored - 1 do
    if layer > 0 then Clustered.delete (clustered Repo.layers) [ tree_id; layer ];
    Clustered.delete (clustered Repo.subtrees) [ tree_id; layer ];
    Clustered.delete (clustered Repo.summaries) [ tree_id; layer ]
  done;
  let species = ref [] in
  Table.iter_index (Repo.species repo) ~index:"by_chunk" ~prefix:(Key.int tree_id)
    (fun rid _ ->
      species := rid :: !species;
      true);
  List.iter (fun rid -> ignore (Table.delete (Repo.species repo) rid)) !species;
  Repo.flush repo;
  Log.info (fun m -> m "deleted tree %S" (Stored_tree.name stored))

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
  (* Each live tree's name run, against the names its node rows hold. *)
  List.iter
    (fun key ->
      match key with
      | [ id ] when List.mem_assoc id live -> ()
      | _ ->
          problems :=
            Printf.sprintf "names: runs of a group no live tree has: %s"
              (String.concat ", " (List.map string_of_int key))
            :: !problems)
    (Clustered.groups (clustered Repo.names));
  List.iter
    (fun (id, _) ->
      let stored = Stored_tree.open_id repo id in
      let names = Array.make (Stored_tree.node_count stored) "" in
      match
        Stored_tree.scan stored ~lo:0 ~hi:(Array.length names - 1) (fun v ->
            names.(v.Node_view.node) <- v.Node_view.name;
            v.Node_view.node + 1);
        Name_run.check (Name_run.open_run repo ~tree:id) ~names
      with
      | Ok () -> ()
      | Error e -> problems := e :: !problems
      | exception Crimson_storage.Error.Error e ->
          problems :=
            Printf.sprintf "names (%d): %s" id (Crimson_storage.Error.to_string e)
            :: !problems)
    live;
  List.sort compare !problems
