module Database = Crimson_storage.Database
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Clustered = Crimson_storage.Clustered

type t = {
  db : Database.t;
  trees : Table.t;
  nodes : Table.t;
  names : Table.t;
  layers : Table.t;
  node_runs : Table.t;
  subtrees : Table.t;
  species : Table.t;
  summaries : Table.t;
  queries : Table.t;
  collections : Table.t;
  bips : Table.t;
  members : Table.t;
  mutable next_query_id : int option; (* lazily initialised from storage *)
  species_runs : (int, Clustered.group) Hashtbl.t;
      (* each tree's species run, opened on its first lookup *)
}

exception Open_error of string

let open_error fmt = Printf.ksprintf (fun s -> raise (Open_error s)) fmt

(* The layout of every table below. A repository records it in its
   catalog when created; any other version is refused, not migrated. *)
let format_version = 3

(* Checked before the log is read, so a refused open leaves it as it
   was. A new repository (version 0, no tables) takes this version. *)
let check_version dir ~version ~tables =
  if version <> format_version && not (version = 0 && tables = []) then
    open_error
      "cannot open repository %s: it has format version %d, and this version reads \
       format version %d only; re-load its trees with this version"
      dir version format_version

let open_tables db =
  if Database.version db <> format_version then Database.set_version db format_version;
  let table name schema indexes = Database.table db ~name ~schema ~indexes in
  (* One at a time: a new repository lists them in its catalog in this
     order. *)
  let trees = table "trees" Schema.Trees.schema Schema.Trees.indexes in
  let nodes = table "nodes" Schema.Nodes.schema [] in
  let node_runs =
    table "node_runs" Clustered.directory_schema Clustered.directory_indexes
  in
  let names = table "names" Schema.Names.schema [] in
  let layers = table "layers" Schema.Layers.schema [] in
  let subtrees = table "subtrees" Schema.Subtrees.schema [] in
  let species = table "species" Schema.Species.schema [] in
  let queries = table "queries" Schema.Queries.schema Schema.Queries.indexes in
  let summaries = table "summaries" Schema.Summaries.schema [] in
  let collections =
    table "collections" Schema.Collections.schema Schema.Collections.indexes
  in
  let bips = table "bips" Schema.Bips.schema Schema.Bips.indexes in
  let members = table "members" Schema.Members.schema Schema.Members.indexes in
  {
    db;
    trees;
    nodes;
    names;
    node_runs;
    layers;
    subtrees;
    species;
    summaries;
    queries;
    collections;
    bips;
    members;
    next_query_id = None;
    species_runs = Hashtbl.create 8;
  }

(* The server opens repositories it must not create, and has to report a
   clean startup failure instead of a raw [Sys_error]/[Unix_error]: every
   failure mode of opening funnels into the one typed exception. *)
let open_dir ?pool_size ?durable ?io ?(create = true) ?(mode = Database.Read_write)
    dir =
  if (not create) || mode = Database.Read_only then begin
    if not (Sys.file_exists dir) then open_error "%s: no such directory" dir;
    if not (Sys.is_directory dir) then open_error "%s: not a directory" dir;
    if not (Sys.file_exists (Filename.concat dir "catalog.crim")) then
      open_error "%s: not a crimson repository (no catalog.crim)" dir
  end;
  let opened =
    match
      Database.open_dir ?pool_size ?durable ?io ~mode ~check:(check_version dir) dir
    with
    | db -> (
        (* Opening half the tables and then failing must not leak the
           descriptors of the ones that did open — the crash matrix
           reopens hundreds of repositories in one process. *)
        match open_tables db with
        | repo -> Ok repo
        | exception e ->
            Database.abandon db;
            Error e)
    | exception e -> Error e
  in
  match opened with
  | Ok repo -> repo
  | Error (Sys_error msg) -> open_error "cannot open repository %s: %s" dir msg
  | Error (Unix.Unix_error (e, _, arg)) ->
      open_error "cannot open repository %s: %s (%s)" dir (Unix.error_message e) arg
  | Error (Invalid_argument msg) ->
      open_error "cannot open repository %s: %s" dir msg
  | Error (Crimson_util.Codec.Corrupt msg) ->
      open_error "cannot open repository %s: corrupt catalog: %s" dir msg
  | Error (Database.Schema_mismatch msg) ->
      open_error "cannot open repository %s: schema mismatch: %s" dir msg
  | Error (Crimson_storage.Error.Error e) ->
      open_error "cannot open repository %s: %s" dir
        (Crimson_storage.Error.to_string e)
  | Error e -> raise e

let open_mem ?pool_size () = open_tables (Database.open_mem ?pool_size ())

let dir t = Database.dir t.db
let mode t = Database.mode t.db
let trees t = t.trees
let nodes t = t.nodes
let names t = t.names
let node_runs t = t.node_runs
let layers t = t.layers
let subtrees t = t.subtrees
let species t = t.species
let summaries t = t.summaries
let queries t = t.queries
let collections t = t.collections
let bips t = t.bips
let members t = t.members
let clustered t table = Clustered.create (table t) ~directory:t.node_runs

(* Kept while the group stands: every write and delete of a species
   group forgets it first, so a replaced group is never read through
   its old runs. *)
let species_run t ~tree =
  match Hashtbl.find_opt t.species_runs tree with
  | Some g -> g
  | None ->
      let g = Clustered.open_group (clustered t species) [ tree ] in
      Hashtbl.replace t.species_runs tree g;
      g

let forget_species_run t ~tree = Hashtbl.remove t.species_runs tree

let commit t = Database.commit t.db
let flush t = Database.flush t.db
let close t = Database.close t.db
let abandon t = Database.abandon t.db

(* --------------------------- Query history ------------------------- *)

let next_query_id t =
  match t.next_query_id with
  | Some id -> id
  | None -> (
      (* Cold start: ids are dense and ascending, so the successor of the
         rightmost by_id key is the next id — one index descent instead
         of a full history scan. *)
      match Table.last_entry t.queries ~index:"by_id" with
      | Some (_, row) -> Record.get_int row Schema.Queries.c_id + 1
      | None -> 0)

(* A history row is one heap record, so it must fit one page. Cut the
   result, then the text, then the cost, until it does; a cut field
   ends in a marker that says how many bytes went. *)
let max_row = Crimson_storage.Slotted.max_record

let history_row ~id ~elapsed_ms ~pages ~cost ~text ~result =
  let time = Unix.gettimeofday () in
  let row ~text ~result ~cost =
    [|
      Record.VInt id;
      Record.VFloat time;
      Record.VText text;
      Record.VText result;
      Record.VFloat elapsed_ms;
      Record.VInt pages;
      Record.VText cost;
    |]
  in
  let excess ~text ~result ~cost =
    String.length (Record.encode Schema.Queries.schema (row ~text ~result ~cost)) - max_row
  in
  (* Shed at least [over] bytes, the marker's included. A field no
     longer than its marker stays whole: cutting it would not help. *)
  let cut s over =
    if over <= 0 then s
    else
      let keep = max 0 (String.length s - over - 32) in
      let marked =
        Printf.sprintf "%s... [%d bytes cut]" (String.sub s 0 keep) (String.length s - keep)
      in
      if String.length marked < String.length s then marked else s
  in
  let over = excess ~text ~result ~cost in
  if over <= 0 then row ~text ~result ~cost
  else
    let result = cut result over in
    let text = cut text (excess ~text ~result ~cost) in
    let cost = cut cost (excess ~text ~result ~cost) in
    row ~text ~result ~cost

let record_query ?(elapsed_ms = 0.0) ?(pages = 0) ?(cost = "") t ~text ~result =
  let id = next_query_id t in
  t.next_query_id <- Some (id + 1);
  ignore (Table.insert t.queries (history_row ~id ~elapsed_ms ~pages ~cost ~text ~result));
  id

type query_record = {
  id : int;
  time : float;
  text : string;
  result : string;
  elapsed_ms : float;
  pages : int;
  cost : string;
}

let decode_record row =
  {
    id = Record.get_int row Schema.Queries.c_id;
    time = Record.get_float row Schema.Queries.c_time;
    text = Record.get_text row Schema.Queries.c_text;
    result = Record.get_text row Schema.Queries.c_result;
    elapsed_ms = Record.get_float row Schema.Queries.c_elapsed_ms;
    pages = Record.get_int row Schema.Queries.c_pages;
    cost = Record.get_text row Schema.Queries.c_cost;
  }

let history t =
  let acc = ref [] in
  Table.scan t.queries (fun _ row -> acc := decode_record row :: !acc);
  List.sort (fun a b -> Int.compare a.id b.id) !acc

let history_entry t id =
  match
    Table.find t.queries ~index:"by_id" ~key:(Schema.Queries.key_id id)
  with
  | Some (_, row) -> Some (decode_record row)
  | None -> None
