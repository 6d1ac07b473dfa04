module Database = Crimson_storage.Database
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record

type t = {
  db : Database.t;
  trees : Table.t;
  nodes : Table.t;
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
}

let dir_label db = match Database.dir db with Some d -> d | None -> "<mem>"

(* Open the Query Repository, migrating repositories written before the
   telemetry columns existed: their rows re-insert under the new schema
   with elapsed_ms = 0 and pages = 0 (cost unknown, not free — but zero
   is the honest sentinel the decoder can promise). *)
let open_queries db =
  let open_with schema =
    Database.table db ~name:"queries" ~schema ~indexes:Schema.Queries.indexes
  in
  (* Reopen under [schema], re-inserting every row padded out to the
     current layout. Rows from before a column existed read as zero-cost
     (the honest sentinel the decoder can promise). *)
  let migrate_from schema ~pad =
    let legacy = open_with schema in
    let rows = ref [] in
    Table.scan legacy (fun _ row -> rows := row :: !rows);
    Database.drop_table db "queries";
    let tbl = open_with Schema.Queries.schema in
    List.iter
      (fun row -> ignore (Table.insert tbl (Array.append row pad)))
      (List.rev !rows);
    tbl
  in
  match open_with Schema.Queries.schema with
  | tbl -> tbl
  | exception Database.Schema_mismatch _ when Database.mode db = Database.Read_only
    ->
      (* Migration re-inserts every row under the new layout — a write.
         A read-only open cannot do it; one read-write open migrates the
         repository for every subsequent reader. *)
      Crimson_storage.Error.fail
        (Crimson_storage.Error.Read_only
           {
             file = dir_label db;
             op = "migrate legacy queries schema (open read-write once)";
           })
  | exception Database.Schema_mismatch _ -> (
      match migrate_from Schema.Queries.legacy_schema_v1 ~pad:[| Record.VText "" |] with
      | tbl -> tbl
      | exception Database.Schema_mismatch _ ->
          migrate_from Schema.Queries.legacy_schema
            ~pad:[| Record.VFloat 0.0; Record.VInt 0; Record.VText "" |])

exception Open_error of string

let open_error fmt = Printf.ksprintf (fun s -> raise (Open_error s)) fmt

let open_tables db =
  let trees =
    Database.table db ~name:"trees" ~schema:Schema.Trees.schema
      ~indexes:Schema.Trees.indexes
  in
  let nodes =
    match
      Database.table db ~name:"nodes" ~schema:Schema.Nodes.schema
        ~indexes:Schema.Nodes.indexes
    with
    | tbl -> tbl
    | exception Database.Schema_mismatch _ ->
        (* Node rows in an older layout are refused, not migrated: a
           rewrite would drop the table before re-inserting its rows, and
           without an atomic table swap a crash half-way would lose every
           tree. The message names what the catalog holds. *)
        let schema, indexes = Option.get (Database.stored_layout db "nodes") in
        let found =
          if not (Array.exists (fun (c, _) -> c = "subtree_end") schema) then
            "lacks the subtree_end column"
          else
            Printf.sprintf "has the index set [%s], not [%s]"
              (String.concat ", " indexes)
              (String.concat ", "
                 (List.map (fun (s : Table.index_spec) -> s.index_name)
                    Schema.Nodes.indexes))
        in
        open_error
          "cannot open repository %s: table nodes %s (written by an older version); \
           re-load its trees with this version"
          (dir_label db) found
  in
  let node_runs =
    Database.table db ~name:"node_runs" ~schema:Schema.Node_runs.schema
      ~indexes:Schema.Node_runs.indexes
  in
  let layers =
    Database.table db ~name:"layers" ~schema:Schema.Layers.schema
      ~indexes:Schema.Layers.indexes
  in
  let subtrees =
    Database.table db ~name:"subtrees" ~schema:Schema.Subtrees.schema
      ~indexes:Schema.Subtrees.indexes
  in
  let species =
    Database.table db ~name:"species" ~schema:Schema.Species.schema
      ~indexes:Schema.Species.indexes
  in
  let queries = open_queries db in
  (* The collection and summary tables arrived after repositories
     already existed in the wild. A read-write open creates them (empty)
     on the spot; a read-only open of an older repository cannot, and
     refuses with the same typed advice the queries migration gives. *)
  (if Database.mode db = Database.Read_only then
     let existing = Database.table_names db in
     let missing =
       List.filter
         (fun t -> not (List.mem t existing))
         [ "collections"; "summaries" ]
     in
     match missing with
     | [] -> ()
     | names ->
         Crimson_storage.Error.fail
           (Crimson_storage.Error.Read_only
              {
                file = dir_label db;
                op =
                  Printf.sprintf "create %s tables (open read-write once)"
                    (String.concat "/" names);
              }));
  let summaries =
    Database.table db ~name:"summaries" ~schema:Schema.Summaries.schema
      ~indexes:Schema.Summaries.indexes
  in
  let collections =
    Database.table db ~name:"collections" ~schema:Schema.Collections.schema
      ~indexes:Schema.Collections.indexes
  in
  let bips =
    Database.table db ~name:"bips" ~schema:Schema.Bips.schema
      ~indexes:Schema.Bips.indexes
  in
  let members =
    Database.table db ~name:"members" ~schema:Schema.Members.schema
      ~indexes:Schema.Members.indexes
  in
  {
    db;
    trees;
    nodes;
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
    match Database.open_dir ?pool_size ?durable ?io ~mode dir with
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

let database t = t.db
let dir t = Database.dir t.db
let mode t = Database.mode t.db
let trees t = t.trees
let nodes t = t.nodes
let node_runs t = t.node_runs
let layers t = t.layers
let subtrees t = t.subtrees
let species t = t.species
let summaries t = t.summaries
let queries t = t.queries
let collections t = t.collections
let bips t = t.bips
let members t = t.members

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

(* Pages touched so far across every buffer pool of this repository:
   hits + misses = logical page accesses. Deltas of this are the
   pages-touched cost recorded per query. *)
let pages_touched t =
  List.fold_left
    (fun acc (_, (s : Crimson_storage.Pager.stats)) -> acc + s.hits + s.misses)
    0
    (Database.pager_stats t.db)

let measure t f =
  let pages0 = pages_touched t in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  (result, elapsed_ms, pages_touched t - pages0)

let record_query ?(elapsed_ms = 0.0) ?(pages = 0) ?(cost = "") t ~text ~result =
  let id = next_query_id t in
  t.next_query_id <- Some (id + 1);
  ignore
    (Table.insert t.queries
       [|
         Record.VInt id;
         Record.VFloat (Unix.gettimeofday ());
         Record.VText text;
         Record.VText result;
         Record.VFloat elapsed_ms;
         Record.VInt pages;
         Record.VText cost;
       |]);
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
