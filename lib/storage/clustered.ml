(* Rows of a group are appended in id order, so each heap page holds a
   run of consecutive ids in consecutive slots. A run starts wherever
   the page changes or the slot is not the previous slot + 1 (a group's
   first run may share its page with the previous group's last rows;
   tombstones never split a live group's runs because slots are never
   reused). One directory row per run is about one row per heap page,
   and locating id [i] is a binary search plus [rid + (i - first)]:
   slots are the low bits of a rid. A sorted group's runs break at the
   same places and keep their first row's key; a group whose rows are
   page-sized blocks gives each its own run instead, which is still
   about one directory row per page. *)

module R = Record.Reader

type t = { table : Table.t; directory : Table.t }

let create table ~directory = { table; directory }

type run = { first : int; rows : int; rid : Heap.rid; mark : int; key : string }

type group = {
  c : t;
  key : int list;
  runs : run array;
  size : int;
  mutable hint : int; (* the run of the last id located *)
}

(* ---------------------------- Directory ---------------------------- *)

let directory_schema : Record.schema =
  [|
    ("table", Record.Text);
    ("group", Record.Blob);
    ("first", Record.Int);
    ("rows", Record.Int);
    ("rid", Record.Int);
    ("mark", Record.Int);
    ("key", Record.Blob);
  |]

let encode_group key = Key.cat (List.map Key.int key)

let directory_indexes =
  [
    {
      Table.index_name = "by_first";
      key_of_row =
        (fun row ->
          Key.cat
            [
              Key.text (Record.get_text row 0); Record.get_blob row 1;
              Key.int (Record.get_int row 2);
            ]);
      unique = true;
    };
  ]

(* The directory rows, with their rids, of every group of this table
   whose key begins with [key] (all of them for [[]]), in key order. *)
let directory_rows t key =
  let acc = ref [] in
  Table.iter_index t.directory ~index:"by_first"
    ~prefix:(Key.cat [ Key.text (Table.name t.table); encode_group key ])
    (fun rid row ->
      acc := (rid, row) :: !acc;
      true);
  List.rev !acc

let group_of c key runs =
  let size =
    match runs with
    | [||] -> 0
    | _ ->
        let r = runs.(Array.length runs - 1) in
        r.first + r.rows
  in
  { c; key; runs; size; hint = 0 }

let run_of (_, row) =
  let int = Record.get_int row in
  { first = int 2; rows = int 3; rid = int 4; mark = int 5; key = Record.get_blob row 6 }

(* The group key a directory row names. *)
let group_key (_, row) =
  let blob = Record.get_blob row 1 in
  let rec ints pos =
    if pos >= String.length blob then []
    else
      let v, pos = Key.decode_int blob ~pos in
      v :: ints pos
  in
  ints 0

let open_group t key =
  group_of t key (Array.of_list (List.map run_of (directory_rows t key)))

let size g = g.size
let runs g = g.runs

let show_key ints = "(" ^ String.concat ", " (List.map string_of_int ints) ^ ")"

(* ------------------------------ Write ------------------------------ *)

let max_key t key =
  let row =
    Record.
      [|
        VText (Table.name t.table); VBlob (encode_group key); VInt max_int; VInt max_int;
        VInt max_int; VInt max_int; VBlob "";
      |]
  in
  (* A key of 128 bytes or more takes a second length byte. *)
  Slotted.max_record - String.length (Record.encode directory_schema row) - 1

let write t key ?(mark = fun _ -> 0) ?first_key ?(row_runs = false) ~rows row =
  let rids =
    Array.init rows (fun id ->
        let values = row id in
        let rec keyed i = function
          | [] -> Record.get_int values i = id
          | k :: rest -> Record.get_int values i = k && keyed (i + 1) rest
        in
        if not (keyed 0 key) then
          invalid_arg
            (Printf.sprintf "Clustered.write: row %d of %s does not begin with %s" id
               (Table.name t.table) (show_key key));
        Table.insert t.table values)
  in
  let runs = ref [] and first = ref 0 in
  for i = 1 to rows do
    if
      i = rows || row_runs
      || Heap.rid_page rids.(i) <> Heap.rid_page rids.(i - 1)
      || Heap.rid_slot rids.(i) <> Heap.rid_slot rids.(i - 1) + 1
    then begin
      let key = match first_key with Some k -> k !first | None -> "" in
      let run =
        { first = !first; rows = i - !first; rid = rids.(!first); mark = mark !first; key }
      in
      runs := run :: !runs;
      first := i
    end
  done;
  let runs = Array.of_list (List.rev !runs) in
  Array.iter
    (fun r ->
      ignore
        (Table.insert t.directory
           Record.
             [|
               VText (Table.name t.table); VBlob (encode_group key); VInt r.first;
               VInt r.rows; VInt r.rid; VInt r.mark; VBlob r.key;
             |]))
    runs;
  group_of t key runs

(* ------------------------------ Read ------------------------------- *)

let corrupt g fmt =
  Printf.ksprintf
    (fun detail ->
      Error.fail (Error.Corrupt_page { file = Table.heap_file g.c.table; detail }))
    fmt

(* The run holding [id] (in [0, size)): the last whose first id is at
   most [id]. Sequential reads stay in the hinted run: no search. *)
let run_index g id =
  let runs = g.runs in
  let r = g.hint in
  if r < Array.length runs && runs.(r).first <= id && id < runs.(r).first + runs.(r).rows
  then r
  else
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if runs.(mid).first <= id then search mid hi else search lo (mid - 1)
    in
    let r = search 0 (Array.length runs - 1) in
    g.hint <- r;
    r

let below g key =
  let runs = g.runs in
  (* runs.(lo).key <= key < runs.(hi + 1).key *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if String.compare runs.(mid).key key <= 0 then search mid hi else search lo (mid - 1)
  in
  if Array.length runs = 0 || String.compare runs.(0).key key > 0 then -1
  else runs.(search 0 (Array.length runs - 1)).first

let run_end g id =
  let run = g.runs.(run_index g id) in
  run.first + run.rows

let rid_of g id =
  let run = g.runs.(run_index g id) in
  run.rid + (id - run.first)

let corrupt_row g id rid msg =
  corrupt g "row %d of %s at rid %s: %s" id (show_key g.key) (Heap.rid_to_string rid) msg

(* Decode the row at [rid], held in [page] at [off], after checking that
   it is the group's row [id]. *)
let rec keyed r = function [] -> true | k :: rest -> R.int r = k && keyed r rest

let decode_checked g id rid decode page off len =
  let r = R.create page ~off ~len in
  if not (keyed r g.key && R.int r = id) then begin
    let r = R.create page ~off ~len in
    let found = List.map (fun _ -> R.int r) (id :: g.key) in
    corrupt g "rid %s holds the row keyed %s, not %s" (Heap.rid_to_string rid)
      (show_key found) (show_key (g.key @ [ id ]))
  end;
  decode r

let find g id decode =
  if id < 0 || id >= g.size then None
  else
    let rid = rid_of g id in
    try Table.with_payload g.c.table rid (decode_checked g id rid decode)
    with Invalid_argument msg | Crimson_util.Codec.Corrupt msg | Record.Type_error msg ->
      corrupt_row g id rid msg

(* A binary search of one run's rows, all in one page: ids [lo .. a)
   are before the probe, [b ..] are not. *)
let seek g ~lo cmp =
  if lo < 0 || lo >= g.size then lo
  else
    let run = g.runs.(run_index g lo) in
    let at = ref lo in
    try
      Table.with_slots g.c.table run.rid (fun read ->
          let rec search a b =
            if a >= b then a
            else
              let mid = (a + b) / 2 in
              let rid = run.rid + (mid - run.first) in
              at := mid;
              match read (mid - run.first) (decode_checked g mid rid cmp) with
              | Some c when c < 0 -> search (mid + 1) b
              | Some _ -> search a mid
              | None -> corrupt_row g mid rid "deleted in a live group"
          in
          search lo (run.first + run.rows))
    with Invalid_argument msg | Crimson_util.Codec.Corrupt msg | Record.Type_error msg ->
      corrupt_row g !at (run.rid + (!at - run.first)) msg

(* [f] runs while the page is pinned, but what it raises is its own: only
   the walk and the decode report a malformed row as corrupt. *)
let scan g ~lo ~hi decode f =
  let hi = min hi (g.size - 1) in
  let rec from id =
    if id <= hi then begin
      let run = g.runs.(run_index g id) in
      let rid = run.rid + (id - run.first) in
      let count = min hi (run.first + run.rows - 1) - id + 1 in
      let at = ref 0 and consuming = ref false in
      let stop =
        try
          Table.with_payloads g.c.table rid ~count (fun i page off len ->
              at := i;
              let v = decode_checked g (id + i) (rid + i) (decode (id + i)) page off len in
              consuming := true;
              let next = f v in
              consuming := false;
              next - id)
        with
        | (Invalid_argument msg | Crimson_util.Codec.Corrupt msg | Record.Type_error msg)
          when not !consuming
        ->
          corrupt_row g (id + !at) (rid + !at) msg
      in
      (* A walk that ends inside the run met a deleted row. *)
      if stop >= count then from (id + stop)
    end
  in
  from (max lo 0)

(* ----------------------------- Delete ------------------------------ *)

(* Each directory row is a run: its rows go, each checked to be its
   group's, whether or not the group's other runs are there. *)
let delete t key =
  let dir = directory_rows t key in
  List.iter
    (fun entry ->
      let run = run_of entry in
      let g = group_of t (group_key entry) [| run |] in
      for id = run.first to run.first + run.rows - 1 do
        if find g id ignore <> None then ignore (Table.delete t.table (rid_of g id))
      done)
    dir;
  List.iter (fun (rid, _) -> ignore (Table.delete t.directory rid)) dir

let groups t =
  let acc = ref [] in
  List.iter
    (fun entry ->
      let key = group_key entry in
      match !acc with k :: _ when k = key -> () | _ -> acc := key :: !acc)
    (directory_rows t []);
  List.rev !acc

(* ------------------------------ Check ------------------------------ *)

(* Read every column after the key, by the table's schema. *)
let skip_rest schema ~from r =
  Array.iteri
    (fun i (_, ty) ->
      if i >= from then
        match (ty : Record.column_type) with
        | Int -> ignore (R.int r)
        | Float -> ignore (R.float r)
        | Text | Blob -> ignore (R.text r))
    schema;
  R.finish r

let check g ~rows =
  let fail fmt =
    Printf.ksprintf (fun s -> Error (Table.name g.c.table ^ " " ^ show_key g.key ^ ": " ^ s)) fmt
  in
  let rec runs_ok r next =
    if r = Array.length g.runs then
      if next = rows then Ok () else fail "the runs cover %d ids, not %d" next rows
    else
      let run = g.runs.(r) in
      if run.first <> next then fail "run %d starts at id %d, not %d" r run.first next
      else if run.rows <= 0 then fail "run %d holds %d rows" r run.rows
      else if r > 0 && (run.key = "") <> (g.runs.(0).key = "") then
        fail "run %d has a key where run 0 has none, or none where it has one" r
      else if r > 0 && run.key <> "" && String.compare g.runs.(r - 1).key run.key >= 0 then
        fail "run %d's first key does not follow run %d's" r (r - 1)
      else runs_ok (r + 1) (next + run.rows)
  in
  match runs_ok 0 0 with
  | Error _ as e -> e
  | Ok () -> (
      let from = List.length g.key + 1 in
      let decode = skip_rest (Table.schema g.c.table) ~from in
      let rec rows_ok id =
        if id >= g.size then Ok ()
        else
          match find g id decode with
          | Some () -> rows_ok (id + 1)
          | None -> fail "row %d is missing" id
      in
      try rows_ok 0 with Error.Error e -> fail "%s" (Error.to_string e))
