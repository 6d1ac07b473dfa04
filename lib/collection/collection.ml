module Repo = Crimson_core.Repo
module Schema = Crimson_core.Schema
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Tree = Crimson_tree.Tree
module Codec = Crimson_util.Codec
module Profile = Crimson_obs.Profile
module Span = Crimson_obs.Span
module Metrics = Crimson_obs.Metrics

exception Collection_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Collection_error s)) fmt

type t = {
  repo : Repo.t;
  id : int;
  name : string;
  taxa : string array; (* sorted; index = bitmap ordinal *)
  ord : (string, int) Hashtbl.t; (* taxon name -> ordinal *)
  mutable n_trees : int;
  mutable next_bip : int;
  mutable base_ids : int array option; (* member 0's id set, decoded lazily *)
}

let id t = t.id
let n_trees t = t.n_trees
let n_taxa t = Array.length t.taxa
let taxa t = Array.copy t.taxa

(* ------------------------- Bitmap primitives ------------------------ *)

(* Canonical clade encoding: ceil(n/8) bytes, taxon ordinal [i] at byte
   [i/8], bit [i mod 8]. The byte string doubles as the by_bitmap B+tree
   key, so "same clade" is a point lookup. *)

let bitmap_len n = (n + 7) / 8

let set_bit b i =
  let j = i lsr 3 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i land 7))))

let popcount_char =
  (* 256-entry table: bitmap cardinality is a per-clade hot loop in
     consensus building. *)
  let tbl = Array.make 256 0 in
  for c = 1 to 255 do
    tbl.(c) <- tbl.(c lsr 1) + (c land 1)
  done;
  fun c -> tbl.(Char.code c)

let cardinal bm =
  let acc = ref 0 in
  String.iter (fun c -> acc := !acc + popcount_char c) bm;
  !acc

let bit_mem bm i = Char.code bm.[i lsr 3] land (1 lsl (i land 7)) <> 0

(* [subset a b]: every bit of [a] is set in [b]. *)
let subset a b =
  let n = String.length a in
  let rec go i =
    i >= n || (Char.code a.[i] land lnot (Char.code b.[i]) = 0 && go (i + 1))
  in
  go 0

(* --------------------------- Row plumbing --------------------------- *)

let taxa_blob taxa =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (Array.length taxa);
  Array.iter (Codec.Writer.string w) taxa;
  Codec.Writer.contents w

let taxa_of_blob blob =
  let r = Codec.Reader.create blob in
  let n = Codec.Reader.varint r in
  Array.init n (fun _ -> Codec.Reader.string r)

let handle_of_row repo row =
  let taxa = taxa_of_blob (Record.get_blob row Schema.Collections.c_taxa) in
  let ord = Hashtbl.create (Array.length taxa) in
  Array.iteri (fun i name -> Hashtbl.replace ord name i) taxa;
  {
    repo;
    id = Record.get_int row Schema.Collections.c_id;
    name = Record.get_text row Schema.Collections.c_name;
    taxa;
    ord;
    n_trees = Record.get_int row Schema.Collections.c_n_trees;
    next_bip = Record.get_int row Schema.Collections.c_next_bip;
    base_ids = None;
  }

(* Rewrite the catalog row from the handle's counters (rid changes under
   Table.update, so the row is re-found by id each time). *)
let save_catalog t =
  let tbl = Repo.collections t.repo in
  match Table.find tbl ~index:"by_id" ~key:(Schema.Collections.key_id t.id) with
  | Some (rid, row) ->
      let row = Array.copy row in
      row.(Schema.Collections.c_n_trees) <- Record.VInt t.n_trees;
      row.(Schema.Collections.c_next_bip) <- Record.VInt t.next_bip;
      ignore (Table.update tbl rid row)
  | None -> err "collection %S vanished mid-operation" t.name

let open_name repo name =
  match
    Table.find (Repo.collections repo) ~index:"by_name"
      ~key:(Schema.Collections.key_name name)
  with
  | Some (_, row) -> handle_of_row repo row
  | None -> err "no collection named %S" name

let list_all repo =
  let acc = ref [] in
  Table.scan (Repo.collections repo) (fun _ row ->
      acc :=
        ( Record.get_int row Schema.Collections.c_id,
          Record.get_text row Schema.Collections.c_name )
        :: !acc);
  List.sort compare !acc

let create ?(commit = true) repo ~name ~taxa =
  let taxa = List.sort_uniq String.compare taxa in
  if taxa = [] then err "a collection needs a non-empty taxon set";
  if name = "" then err "a collection needs a non-empty name";
  let tbl = Repo.collections repo in
  let next_id =
    match Table.last_entry tbl ~index:"by_id" with
    | Some (_, row) -> Record.get_int row Schema.Collections.c_id + 1
    | None -> 0
  in
  let taxa = Array.of_list taxa in
  let row =
    [|
      Record.VInt next_id;
      Record.VText name;
      Record.VInt (Array.length taxa);
      Record.VInt 0;
      Record.VInt 0;
      Record.VBlob (taxa_blob taxa);
      Record.VFloat (Unix.gettimeofday ());
    |]
  in
  (match Table.insert tbl row with
  | _ -> ()
  | exception Table.Constraint_violation _ ->
      err "a collection named %S already exists" name);
  if commit then Repo.commit repo;
  handle_of_row repo row

let drop ?(commit = true) repo name =
  let t = open_name repo name in
  let delete_prefix tbl prefix =
    let rids = ref [] in
    Table.iter_index tbl ~index:"by_id" ~prefix (fun rid _ ->
        rids := rid :: !rids;
        true);
    List.iter (fun rid -> ignore (Table.delete tbl rid)) !rids
  in
  delete_prefix (Repo.bips repo) (Schema.Bips.key_coll t.id);
  delete_prefix (Repo.members repo) (Schema.Members.key_coll t.id);
  (match
     Table.find (Repo.collections repo) ~index:"by_id"
       ~key:(Schema.Collections.key_id t.id)
   with
  | Some (rid, _) -> ignore (Table.delete (Repo.collections repo) rid)
  | None -> ());
  if commit then Repo.commit repo

(* --------------------------- Clade extraction ----------------------- *)

(* The distinct clades of one member, as canonical bitmaps: for every
   internal non-root node, the set of leaf ordinals below it (the same
   set [Crimson_tree.Metrics.clades] names, deduplicated per tree). The
   member must name every taxon exactly once. *)
let clade_bitmaps t tree =
  let seen = Array.make (Array.length t.taxa) false in
  let leaves_seen = ref 0 in
  let ordinal v =
    let name =
      match Tree.name tree v with
      | Some s -> s
      | None -> err "member tree has an unnamed leaf"
    in
    match Hashtbl.find_opt t.ord name with
    | Some i ->
        if seen.(i) then err "member repeats leaf %S" name;
        seen.(i) <- true;
        incr leaves_seen;
        i
    | None -> err "leaf %S is not in collection %S's taxon set" name t.name
  in
  let bitmaps =
    Crimson_tree.Metrics.clade_bitmaps tree ~leaves:(Array.length t.taxa) ~ordinal
  in
  if !leaves_seen <> Array.length t.taxa then
    err "member has %d leaves; collection %S has %d taxa" !leaves_seen t.name
      (Array.length t.taxa);
  (* Sorted bitmaps make dictionary-id assignment order deterministic for
     a given tree, independent of node numbering. *)
  List.sort String.compare bitmaps

(* ----------------------------- Encodings ---------------------------- *)

(* Sorted strictly-increasing id arrays, gap-varint encoded: first id,
   then successive differences. *)
let write_ids w ids =
  Codec.Writer.varint w (Array.length ids);
  let prev = ref 0 in
  Array.iteri
    (fun i id ->
      Codec.Writer.varint w (if i = 0 then id else id - !prev);
      prev := id)
    ids

let read_ids r =
  let n = Codec.Reader.varint r in
  let prev = ref 0 in
  Array.init n (fun i ->
      let v = Codec.Reader.varint r in
      prev := (if i = 0 then v else !prev + v);
      !prev)

let encode_full ids =
  let w = Codec.Writer.create () in
  write_ids w ids;
  Codec.Writer.contents w

(* adds/removes of [ids] relative to [base]; both inputs sorted. *)
let diff_sorted ids base =
  let adds = ref [] and dels = ref [] in
  let n = Array.length ids and m = Array.length base in
  let i = ref 0 and j = ref 0 in
  while !i < n || !j < m do
    if !j >= m || (!i < n && ids.(!i) < base.(!j)) then begin
      adds := ids.(!i) :: !adds;
      incr i
    end
    else if !i >= n || base.(!j) < ids.(!i) then begin
      dels := base.(!j) :: !dels;
      incr j
    end
    else begin
      incr i;
      incr j
    end
  done;
  (Array.of_list (List.rev !adds), Array.of_list (List.rev !dels))

let encode_delta ~adds ~dels =
  let w = Codec.Writer.create () in
  write_ids w adds;
  write_ids w dels;
  Codec.Writer.contents w

let apply_delta base ~adds ~dels =
  let out = ref [] in
  let n = Array.length base and na = Array.length adds in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let nd = Array.length dels in
  while !i < n || !j < na do
    if !j >= na || (!i < n && base.(!i) < adds.(!j)) then begin
      (* emit base.(i) unless deleted *)
      while !k < nd && dels.(!k) < base.(!i) do
        incr k
      done;
      if not (!k < nd && dels.(!k) = base.(!i)) then out := base.(!i) :: !out;
      incr i
    end
    else begin
      out := adds.(!j) :: !out;
      incr j
    end
  done;
  Array.of_list (List.rev !out)

(* ------------------------------ Members ----------------------------- *)

let member_row t member =
  match
    Table.find (Repo.members t.repo) ~index:"by_id"
      ~key:(Schema.Members.key_id ~coll:t.id member)
  with
  | Some (_, row) -> row
  | None -> err "collection %S has no member #%d" t.name member

let rec decode_member t row =
  let kind = Record.get_int row Schema.Members.c_kind in
  let enc = Record.get_blob row Schema.Members.c_enc in
  let r = Codec.Reader.create enc in
  if kind = Schema.Members.kind_full then read_ids r
  else begin
    let adds = read_ids r in
    let dels = read_ids r in
    let base_id = Record.get_int row Schema.Members.c_base in
    let base =
      match t.base_ids with
      | Some ids when base_id = 0 -> ids
      | _ ->
          let ids = decode_member t (member_row t base_id) in
          if base_id = 0 then t.base_ids <- Some ids;
          ids
    in
    apply_delta base ~adds ~dels
  end

let member_ids t member = decode_member t (member_row t member)

let member_names t =
  let acc = ref [] in
  Table.iter_index (Repo.members t.repo) ~index:"by_id"
    ~prefix:(Schema.Members.key_coll t.id) (fun _ row ->
      acc :=
        ( Record.get_int row Schema.Members.c_member,
          Record.get_text row Schema.Members.c_name )
        :: !acc;
      true);
  List.sort compare !acc |> List.map snd

(* ------------------------------ Ingest ------------------------------ *)

let bitmap_of_bip t bip =
  match
    Table.find (Repo.bips t.repo) ~index:"by_id"
      ~key:(Schema.Bips.key_id ~coll:t.id bip)
  with
  | Some (_, row) -> Record.get_blob row Schema.Bips.c_bitmap
  | None -> err "collection %S: dangling dictionary id %d" t.name bip

type ingest_report = {
  member : int;
  member_name : string;
  clades : int;
  new_bips : int;
  delta : bool;
  enc_bytes : int;
}

let ingest ?(commit = true) ?name t tree =
  Span.with_ ~name:"coll.ingest" (fun () ->
      let member = t.n_trees in
      let member_name =
        match name with Some n -> n | None -> Printf.sprintf "m%d" member
      in
      let bitmaps = Profile.stage "clades" (fun () -> clade_bitmaps t tree) in
      let bips_tbl = Repo.bips t.repo in
      let new_bips = ref 0 in
      (* Dictionary upsert: a by_bitmap hit bumps the occurrence count;
         a miss mints the next dense id. *)
      let ids =
        Profile.stage "dict_upsert" (fun () ->
            List.map
              (fun bm ->
                match
                  Table.find bips_tbl ~index:"by_bitmap"
                    ~key:(Schema.Bips.key_bitmap ~coll:t.id bm)
                with
                | Some (rid, row) ->
                    let row = Array.copy row in
                    let count = Record.get_int row Schema.Bips.c_count in
                    row.(Schema.Bips.c_count) <- Record.VInt (count + 1);
                    ignore (Table.update bips_tbl rid row);
                    Metrics.Counter.incr (Metrics.counter "coll.dict.hits");
                    Record.get_int row Schema.Bips.c_bip
                | None ->
                    let bip = t.next_bip in
                    t.next_bip <- bip + 1;
                    incr new_bips;
                    ignore
                      (Table.insert bips_tbl
                         [|
                           Record.VInt t.id;
                           Record.VInt bip;
                           Record.VInt 1;
                           Record.VBlob bm;
                         |]);
                    Metrics.Counter.incr (Metrics.counter "coll.dict.inserts");
                    bip)
              bitmaps)
      in
      let ids = Array.of_list (List.sort_uniq compare ids) in
      (* Encode: full id list, or adds/removes against member 0 when that
         is strictly smaller (replicates share most clades, so usually it
         is). *)
      let full = encode_full ids in
      let kind, base, enc =
        if member = 0 then (Schema.Members.kind_full, 0, full)
        else begin
          let base_ids =
            match t.base_ids with
            | Some b -> b
            | None ->
                let b = member_ids t 0 in
                t.base_ids <- Some b;
                b
          in
          let adds, dels = diff_sorted ids base_ids in
          let delta = encode_delta ~adds ~dels in
          if String.length delta < String.length full then
            (Schema.Members.kind_delta, 0, delta)
          else (Schema.Members.kind_full, 0, full)
        end
      in
      (match
         Table.insert (Repo.members t.repo)
           [|
             Record.VInt t.id;
             Record.VInt member;
             Record.VText member_name;
             Record.VInt kind;
             Record.VInt base;
             Record.VInt (Array.length ids);
             Record.VBlob enc;
           |]
       with
      | _ -> ()
      | exception Table.Constraint_violation _ ->
          err "collection %S already has a member named %S" t.name member_name);
      if member = 0 then t.base_ids <- Some ids;
      t.n_trees <- member + 1;
      save_catalog t;
      Metrics.Counter.incr (Metrics.counter "coll.ingest.trees");
      if commit then Repo.commit t.repo;
      {
        member;
        member_name;
        clades = Array.length ids;
        new_bips = !new_bips;
        delta = (kind = Schema.Members.kind_delta);
        enc_bytes = String.length enc;
      })

(* --------------------------- Bulk queries --------------------------- *)

(* Dictionary scan: every (bitmap, count) of this collection, in id
   order — the one access path all bulk queries share. *)
let scan_dict t f =
  Table.iter_index (Repo.bips t.repo) ~index:"by_id"
    ~prefix:(Schema.Bips.key_coll t.id) (fun _ row ->
      f (Record.get_blob row Schema.Bips.c_bitmap) (Record.get_int row Schema.Bips.c_count);
      true)

(* Nest compatible clades by size, exactly as the in-memory
   [Crimson_recon.Consensus] does over name sets — here over bitmaps.
   [clades] must be duplicate-free (the dictionary guarantees it). *)
let build_from_clades taxa clades =
  let n = Array.length taxa in
  let clades =
    List.sort
      (fun a b ->
        match Int.compare (cardinal b) (cardinal a) with
        | 0 -> String.compare a b
        | c -> c)
      clades
  in
  let universe =
    let b = Bytes.make (bitmap_len n) '\000' in
    for i = 0 to n - 1 do
      set_bit b i
    done;
    Bytes.to_string b
  in
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root b in
  let nodes = ref [ (universe, root) ] in
  List.iter
    (fun clade ->
      let parent =
        List.fold_left
          (fun best (bm, id) ->
            match best with
            | Some (bbm, _) ->
                if subset clade bm && cardinal bm < cardinal bbm then Some (bm, id)
                else best
            | None -> if subset clade bm then Some (bm, id) else None)
          None !nodes
      in
      match parent with
      | Some (_, pid) ->
          let id = Tree.Builder.add_child ~branch_length:1.0 b ~parent:pid in
          nodes := (clade, id) :: !nodes
      | None -> ())
    clades;
  Array.iteri
    (fun i name ->
      let parent =
        List.fold_left
          (fun best (bm, id) ->
            match best with
            | Some (bbm, _) ->
                if bit_mem bm i && cardinal bm < cardinal bbm then Some (bm, id)
                else best
            | None -> if bit_mem bm i then Some (bm, id) else None)
          None !nodes
      in
      match parent with
      | Some (_, pid) ->
          ignore (Tree.Builder.add_child ~name ~branch_length:1.0 b ~parent:pid)
      | None -> assert false)
    taxa;
  Tree.Builder.finish b

let consensus ?(threshold = 0.5) t =
  if threshold < 0.5 || threshold > 1.0 then
    err "consensus threshold must be in [0.5, 1] (got %g)" threshold;
  if t.n_trees = 0 then err "collection %S is empty" t.name;
  Span.with_ ~name:"coll.consensus" (fun () ->
      let n = t.n_trees in
      let kept =
        Profile.stage "dict_scan" (fun () ->
            let acc = ref [] in
            scan_dict t (fun bm count ->
                let keep =
                  if threshold >= 1.0 then count = n
                  else float_of_int count /. float_of_int n > threshold
                in
                if keep then acc := bm :: !acc);
            !acc)
      in
      Span.attr "kept" (Crimson_obs.Json.Num (float_of_int (List.length kept)));
      Profile.stage "consensus_build" (fun () -> build_from_clades t.taxa kept))

let support t =
  if t.n_trees = 0 then err "collection %S is empty" t.name;
  Span.with_ ~name:"coll.support" (fun () ->
      let entries =
        Profile.stage "dict_scan" (fun () ->
            let acc = ref [] in
            scan_dict t (fun bm count -> acc := (bm, count) :: !acc);
            !acc)
      in
      entries
      |> List.sort (fun (ba, ca) (bb, cb) ->
             match Int.compare cb ca with 0 -> String.compare ba bb | c -> c)
      |> List.map (fun (bm, count) ->
             let names = ref [] in
             for i = Array.length t.taxa - 1 downto 0 do
               if bit_mem bm i then names := t.taxa.(i) :: !names
             done;
             (!names, count)))

let member_tree t member =
  let ids = member_ids t member in
  build_from_clades t.taxa (Array.to_list (Array.map (bitmap_of_bip t) ids))

(* Sorted-array intersection size: RF(a,b) = |a| + |b| - 2|a∩b|. *)
let inter_count a b =
  let n = Array.length a and m = Array.length b in
  let i = ref 0 and j = ref 0 and c = ref 0 in
  while !i < n && !j < m do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else begin
      incr c;
      incr i;
      incr j
    end
  done;
  !c

let rf_matrix t =
  Span.with_ ~name:"coll.rf_matrix" (fun () ->
      let sets =
        Profile.stage "decode_members" (fun () ->
            Array.init t.n_trees (fun m -> member_ids t m))
      in
      Profile.stage "rf_matrix" (fun () ->
          let n = t.n_trees in
          let m = Array.make_matrix n n 0 in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              let d =
                Array.length sets.(i) + Array.length sets.(j)
                - (2 * inter_count sets.(i) sets.(j))
              in
              m.(i).(j) <- d;
              m.(j).(i) <- d
            done
          done;
          m))

(* ------------------------------- Stats ------------------------------ *)

type stats = {
  s_trees : int;
  s_taxa : int;
  s_dict_entries : int;
  s_shared_entries : int;
  s_dict_bytes : int;
  s_member_bytes : int;
  s_naive_bytes : int;
}

let stats t =
  let dict_entries = ref 0 and shared = ref 0 and dict_bytes = ref 0 in
  Profile.stage "dict_scan" (fun () ->
      Table.iter_index (Repo.bips t.repo) ~index:"by_id"
        ~prefix:(Schema.Bips.key_coll t.id) (fun _ row ->
          incr dict_entries;
          if Record.get_int row Schema.Bips.c_count >= 2 then incr shared;
          dict_bytes :=
            !dict_bytes + String.length (Record.encode Schema.Bips.schema row);
          true));
  let member_bytes = ref 0 and total_clades = ref 0 in
  Profile.stage "member_scan" (fun () ->
      Table.iter_index (Repo.members t.repo) ~index:"by_id"
        ~prefix:(Schema.Members.key_coll t.id) (fun _ row ->
          member_bytes :=
            !member_bytes + String.length (Record.encode Schema.Members.schema row);
          total_clades := !total_clades + Record.get_int row Schema.Members.c_n_bips;
          true));
  (* The naive baseline: every member stores its own unshared bitmap
     rows — one representative dictionary-row payload per clade per
     member. *)
  let rep_row_bytes =
    String.length
      (Record.encode Schema.Bips.schema
         [|
           Record.VInt t.id;
           Record.VInt (max 1 !dict_entries);
           Record.VInt 1;
           Record.VBlob (String.make (bitmap_len (Array.length t.taxa)) '\000');
         |])
  in
  {
    s_trees = t.n_trees;
    s_taxa = Array.length t.taxa;
    s_dict_entries = !dict_entries;
    s_shared_entries = !shared;
    s_dict_bytes = !dict_bytes;
    s_member_bytes = !member_bytes;
    s_naive_bytes = !total_clades * rep_row_bytes;
  }

let ratio s =
  let stored = s.s_dict_bytes + s.s_member_bytes in
  if stored = 0 then 1.0 else float_of_int s.s_naive_bytes /. float_of_int stored
