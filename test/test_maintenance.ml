(* Tests for storage maintenance (vacuum, page reuse) and clade
   materialisation, plus randomized model tests for the heap and pager. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Pager = Crimson_storage.Pager
module Heap = Crimson_storage.Heap
module Btree = Crimson_storage.Btree
module Key = Crimson_storage.Key
module Record = Crimson_storage.Record
module Table = Crimson_storage.Table
module Database = Crimson_storage.Database
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Clade = Crimson_core.Clade
module Stored_tree = Crimson_core.Stored_tree
module Prng = Crimson_util.Prng

let check = Alcotest.check

(* ------------------------------ Vacuum ----------------------------- *)

let species_schema : Record.schema =
  [| ("name", Record.Text); ("value", Record.Int) |]

let name_ix : Table.index_spec =
  {
    Table.index_name = "by_name";
    key_of_row = (fun row -> Key.text (Record.get_text row 0));
    unique = true;
  }

let make_table () =
  let db = Database.open_mem () in
  Database.table db ~name:"t" ~schema:species_schema ~indexes:[ name_ix ]

let test_vacuum_counts_and_lookups () =
  let t = make_table () in
  let rids =
    List.init 500 (fun i ->
        Table.insert t [| Record.VText (Printf.sprintf "row%04d" i); Record.VInt i |])
  in
  (* Delete every other row. *)
  List.iteri (fun i rid -> if i mod 2 = 0 then ignore (Table.delete t rid)) rids;
  check Alcotest.int "pre-vacuum live" 250 (Table.row_count t);
  let live = Table.vacuum t in
  check Alcotest.int "vacuum reports live" 250 live;
  check Alcotest.int "post-vacuum count" 250 (Table.row_count t);
  (* Index still answers correctly for survivors and victims. *)
  for i = 0 to 499 do
    let key = Key.text (Printf.sprintf "row%04d" i) in
    match Table.find t ~index:"by_name" ~key with
    | Some (_, row) ->
        if i mod 2 = 0 then Alcotest.failf "deleted row %d resurrected" i
        else check Alcotest.int "value" i (Record.get_int row 1)
    | None -> if i mod 2 = 1 then Alcotest.failf "row %d lost by vacuum" i
  done

let test_vacuum_reclaims_space () =
  let t = make_table () in
  (* Fill, delete everything, vacuum: new inserts must land on early
     pages again instead of growing the heap. *)
  let rids =
    List.init 1000 (fun i ->
        Table.insert t [| Record.VText (Printf.sprintf "a%05d" i); Record.VInt i |])
  in
  let max_page = List.fold_left (fun acc rid -> max acc (Heap.rid_page rid)) 0 rids in
  List.iter (fun rid -> ignore (Table.delete t rid)) rids;
  ignore (Table.vacuum t);
  let rid = Table.insert t [| Record.VText "fresh"; Record.VInt 1 |] in
  check Alcotest.bool "page reused" true (Heap.rid_page rid <= 1);
  check Alcotest.bool "sanity: table had grown" true (max_page > 1)

let test_vacuum_empty_table () =
  let t = make_table () in
  check Alcotest.int "empty vacuum" 0 (Table.vacuum t);
  ignore (Table.insert t [| Record.VText "x"; Record.VInt 1 |]);
  check Alcotest.int "still usable" 1 (Table.row_count t)

let test_vacuum_persists () =
  let dir = Filename.temp_file "crimson" ".vac" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let db = Database.open_dir dir in
      let t = Database.table db ~name:"t" ~schema:species_schema ~indexes:[ name_ix ] in
      let rids =
        List.init 100 (fun i ->
            Table.insert t [| Record.VText (Printf.sprintf "p%03d" i); Record.VInt i |])
      in
      List.iteri (fun i rid -> if i < 50 then ignore (Table.delete t rid)) rids;
      ignore (Table.vacuum t);
      Database.close db;
      let db2 = Database.open_dir dir in
      let t2 = Database.table db2 ~name:"t" ~schema:species_schema ~indexes:[ name_ix ] in
      check Alcotest.int "rows survive" 50 (Table.row_count t2);
      (match Table.find t2 ~index:"by_name" ~key:(Key.text "p075") with
      | Some (_, row) -> check Alcotest.int "value" 75 (Record.get_int row 1)
      | None -> Alcotest.fail "lookup after reopen");
      Database.close db2)

let test_btree_clear () =
  let bt = Btree.create (Pager.create_mem ()) in
  for i = 0 to 999 do
    Btree.insert bt ~key:(Printf.sprintf "%05d" i) i
  done;
  Btree.clear bt;
  check Alcotest.int "empty" 0 (Btree.entry_count bt);
  check (Alcotest.option Alcotest.int) "gone" None (Btree.find bt ~key:"00042");
  (* Reusable after clear. *)
  Btree.insert bt ~key:"new" 7;
  check (Alcotest.option Alcotest.int) "insert works" (Some 7) (Btree.find bt ~key:"new");
  match Btree.validate bt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid after clear: %s" e

(* --------------------------- Clade.subtree -------------------------- *)

let test_clade_subtree_matches_extract () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 3 in
  let t0 = Helpers.random_tree rng 200 in
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f:4 repo ~name:"t" t).tree in
  let rank = Tree.preorder_rank t in
  let leaves = Tree.leaves t in
  for _ = 1 to 10 do
    let k = 2 + Prng.int rng 10 in
    let pick = Prng.sample_without_replacement rng ~k ~n:(Array.length leaves) in
    let subset = Array.to_list (Array.map (fun i -> leaves.(i)) pick) in
    let lca = Ops.naive_lca_set t subset in
    let expected = Ops.extract_subtree t lca in
    let got = Clade.subtree stored (List.map (fun v -> rank.(v)) subset) in
    if not (Tree.equal_unordered ~weighted:true ~tolerance:1e-9 expected got) then
      Alcotest.fail "clade subtree mismatch"
  done

let test_clade_subtree_limit () =
  let repo = Repo.open_mem () in
  let fx = Helpers.figure1 () in
  let stored = (Loader.load_tree ~f:2 repo ~name:"f" fx.tree).tree in
  match Clade.subtree ~limit:2 stored [ 4; 5 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limit not enforced"

(* --------------------------- Model tests ---------------------------- *)

let heap_model =
  QCheck.Test.make ~name:"heap matches reference model under random ops" ~count:50
    QCheck.(list (pair (int_bound 2) small_printable_string))
  @@ fun ops ->
  let h = Heap.create (Pager.create_mem ~pool_size:8 ()) in
  let model : (Heap.rid, string) Hashtbl.t = Hashtbl.create 16 in
  let live = ref [] in
  List.iter
    (fun (op, payload) ->
      match op with
      | 0 | 1 ->
          let rid = Heap.insert h payload in
          Hashtbl.replace model rid payload;
          live := rid :: !live
      | _ -> (
          match !live with
          | [] -> ()
          | rid :: rest ->
              Heap.delete h rid;
              Hashtbl.remove model rid;
              live := rest))
    ops;
  Hashtbl.fold (fun rid payload acc -> acc && Heap.get h rid = Some payload) model true
  && Heap.record_count h = Hashtbl.length model

let pager_model =
  QCheck.Test.make ~name:"pager with tiny pool preserves page contents" ~count:30
    QCheck.(list (pair (int_bound 19) (int_bound 255)))
  @@ fun writes ->
  let p = Pager.create_mem ~pool_size:8 () in
  (* 20 pages, pool of 8: every batch of writes forces evictions. *)
  for _ = 1 to 20 do
    ignore (Pager.allocate p)
  done;
  let model = Array.make 20 0 in
  List.iter
    (fun (page, value) ->
      model.(page) <- value;
      Pager.with_page_mut p page (fun buf -> Bytes.set buf 0 (Char.chr value)))
    writes;
  let ok = ref true in
  for page = 0 to 19 do
    let got = Pager.with_page p page (fun buf -> Char.code (Bytes.get buf 0)) in
    if got <> model.(page) then ok := false
  done;
  !ok

let table_model =
  QCheck.Test.make ~name:"table with unique index matches assoc model" ~count:40
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
  @@ fun ops ->
  let t = make_table () in
  let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rid_of : (string, Heap.rid) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (op, i) ->
      let name = Printf.sprintf "k%02d" i in
      match op with
      | 0 | 1 -> (
          match Hashtbl.find_opt model name with
          | Some _ -> (
              (* Duplicate: must raise and change nothing. *)
              match Table.insert t [| Record.VText name; Record.VInt i |] with
              | exception Table.Constraint_violation _ -> ()
              | _ -> QCheck.Test.fail_report "duplicate accepted")
          | None ->
              let rid = Table.insert t [| Record.VText name; Record.VInt i |] in
              Hashtbl.replace model name i;
              Hashtbl.replace rid_of name rid)
      | _ -> (
          match Hashtbl.find_opt rid_of name with
          | Some rid ->
              ignore (Table.delete t rid);
              Hashtbl.remove model name;
              Hashtbl.remove rid_of name
          | None -> ()))
    ops;
  Hashtbl.fold
    (fun name v acc ->
      acc
      &&
      match Table.find t ~index:"by_name" ~key:(Key.text name) with
      | Some (_, row) -> Record.get_int row 1 = v
      | None -> false)
    model true
  && Table.row_count t = Hashtbl.length model

let () =
  Alcotest.run "crimson_maintenance"
    [
      ( "vacuum",
        [
          Alcotest.test_case "counts and lookups" `Quick test_vacuum_counts_and_lookups;
          Alcotest.test_case "reclaims space" `Quick test_vacuum_reclaims_space;
          Alcotest.test_case "empty table" `Quick test_vacuum_empty_table;
          Alcotest.test_case "persists across reopen" `Quick test_vacuum_persists;
          Alcotest.test_case "btree clear" `Quick test_btree_clear;
        ] );
      ( "clade_subtree",
        [
          Alcotest.test_case "matches extract_subtree" `Quick
            test_clade_subtree_matches_extract;
          Alcotest.test_case "limit" `Quick test_clade_subtree_limit;
        ] );
      ( "models",
        [
          QCheck_alcotest.to_alcotest heap_model;
          QCheck_alcotest.to_alcotest pager_model;
          QCheck_alcotest.to_alcotest table_model;
        ] );
    ]
