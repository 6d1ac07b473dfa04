module Table_printer = Crimson_util.Table_printer

type counters = {
  pages_read : int;
  pages_written : int;
  pager_hits : int;
  pager_misses : int;
  cache_hits : int;
  cache_misses : int;
  node_views : int;
  rows_decoded : int;
  bytes_decoded : int;
  bytes_read : int;
  bytes_written : int;
  btree_finds : int;
  cursor_steps : int;
  fsyncs : int;
}

type stage = {
  stage_name : string;
  calls : int;
  elapsed_ms : float;
  minor_words : float;
  major_words : float;
  cost : counters;
}

type report = {
  total : stage;
  stages : stage list;
}

(* The report's counters over a set of (entry, exit) record pairs:
   [delta get] sums [get exit - get entry]. *)
let counters_of delta =
  {
    pages_read = delta (fun (c : Cost.t) -> c.page_reads);
    pages_written = delta (fun c -> c.page_writes);
    pager_hits = delta (fun c -> c.pager_hits);
    pager_misses = delta (fun c -> c.pager_misses);
    cache_hits = delta (fun c -> c.cache_hits);
    cache_misses = delta (fun c -> c.cache_misses);
    node_views = delta (fun c -> c.node_views);
    rows_decoded = delta (fun c -> c.rows_decoded);
    bytes_decoded = delta (fun c -> c.bytes_decoded);
    bytes_read = delta (fun c -> c.bytes_read);
    bytes_written = delta (fun c -> c.bytes_written);
    btree_finds = delta (fun c -> c.btree_finds);
    cursor_steps = delta (fun c -> c.cursor_steps);
    fsyncs = delta (fun c -> c.pager_fsyncs + c.wal_fsyncs);
  }

(* What a scope reads at its entry and at its exit. *)
type mark = {
  charged : Cost.t;
  ms : float;
  minor : float;
  major : float;
}

let now_ms () = Unix.gettimeofday () *. 1000.0

(* [Gc.minor_words] stays exact in native code. [Gc.counters] is the
   calling domain's own count; [Gc.quick_stat] would add every other
   domain's major allocation. *)
let mark () =
  let minor = Gc.minor_words () in
  let _, _, major = Gc.counters () in
  { charged = Cost.snapshot (); ms = now_ms (); minor; major }

(* A stage row from the (entry, exit) marks of its calls. *)
let stage_of name calls =
  let sum f = List.fold_left (fun acc (a, b) -> acc +. (f b -. f a)) 0.0 calls in
  {
    stage_name = name;
    calls = List.length calls;
    elapsed_ms = sum (fun m -> m.ms);
    minor_words = sum (fun m -> m.minor);
    major_words = sum (fun m -> m.major);
    cost =
      counters_of (fun get ->
          List.fold_left (fun acc (a, b) -> acc + get b.charged - get a.charged) 0 calls);
  }

(* The stages of the innermost {!profile} on this domain: each name with
   its calls' marks (newest first), in reverse order of first
   completion. *)
type ctx = { mutable stages : (string * (mark * mark) list ref) list }

let active_key : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let stage name f =
  match !(Domain.DLS.get active_key) with
  | None -> f ()
  | Some ctx ->
      let entry = mark () in
      let close () =
        let call = (entry, mark ()) in
        match List.assoc_opt name ctx.stages with
        | Some calls -> calls := call :: !calls
        | None -> ctx.stages <- (name, ref [ call ]) :: ctx.stages
      in
      Fun.protect ~finally:close f

let profile f =
  let active = Domain.DLS.get active_key in
  let saved = !active in
  let ctx = { stages = [] } in
  active := Some ctx;
  let entry = mark () in
  let result = Fun.protect ~finally:(fun () -> active := saved) f in
  let total = stage_of "total" [ (entry, mark ()) ] in
  let stages = List.rev_map (fun (name, calls) -> stage_of name !calls) ctx.stages in
  (result, { total; stages })

let measure f =
  let c = Cost.current () in
  let pages0 = Cost.pages c and t0 = now_ms () in
  let result = f () in
  (result, now_ms () -. t0, Cost.pages c - pages0)

(* ------------------------------ Reports ------------------------------ *)

let pages_touched (r : report) =
  r.total.cost.pager_hits + r.total.cost.pager_misses

(* (label, projection) for every cost dimension, in display order. *)
let dimensions =
  [
    ("pages_read", fun c -> c.pages_read);
    ("pages_written", fun c -> c.pages_written);
    ("pager_hits", fun c -> c.pager_hits);
    ("pager_misses", fun c -> c.pager_misses);
    ("cache_hits", fun c -> c.cache_hits);
    ("cache_misses", fun c -> c.cache_misses);
    ("node_views", fun c -> c.node_views);
    ("rows_decoded", fun c -> c.rows_decoded);
    ("bytes_decoded", fun c -> c.bytes_decoded);
    ("bytes_read", fun c -> c.bytes_read);
    ("bytes_written", fun c -> c.bytes_written);
    ("btree_finds", fun c -> c.btree_finds);
    ("cursor_steps", fun c -> c.cursor_steps);
    ("fsyncs", fun c -> c.fsyncs);
  ]

let counters_to_json c =
  List.filter_map
    (fun (label, get) ->
      let v = get c in
      if v = 0 then None else Some (label, Json.Num (float_of_int v)))
    dimensions

let cost_summary (r : report) = Json.Obj (counters_to_json r.total.cost)

let stage_to_json s =
  Json.Obj
    (("stage", Json.Str s.stage_name)
    :: ("calls", Json.Num (float_of_int s.calls))
    :: ("elapsed_ms", Json.Num s.elapsed_ms)
    :: ("minor_words", Json.Num s.minor_words)
    :: ("major_words", Json.Num s.major_words)
    :: counters_to_json s.cost)

let report_to_json (r : report) =
  Json.Obj
    [
      ("total", stage_to_json r.total);
      ("stages", Json.List (List.map stage_to_json r.stages));
    ]

let report_to_text (r : report) =
  let cols = r.stages @ [ r.total ] in
  let t =
    Table_printer.create
      ~columns:
        (("cost", Table_printer.Left)
        :: List.map (fun s -> (s.stage_name, Table_printer.Right)) cols)
  in
  let row label cells = Table_printer.add_row t (label :: cells) in
  row "elapsed_ms" (List.map (fun s -> Printf.sprintf "%.3f" s.elapsed_ms) cols);
  row "calls" (List.map (fun s -> string_of_int s.calls) cols);
  List.iter
    (fun (label, get) ->
      if get r.total.cost <> 0 then
        row label (List.map (fun s -> string_of_int (get s.cost)) cols))
    dimensions;
  row "minor_words" (List.map (fun s -> Printf.sprintf "%.0f" s.minor_words) cols);
  row "major_words" (List.map (fun s -> Printf.sprintf "%.0f" s.major_words) cols);
  Table_printer.render t
