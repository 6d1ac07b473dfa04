(* A block is one row (tree, block, entries) of the [names] table. Its
   [entries] blob is

     entry* restart-offset* restart-count

   An entry is a varint shared-prefix length, a varint suffix length,
   the suffix bytes and a varint node id. Entry [16 k] of a block is
   restart [k]: it shares nothing with the entry before it, and its
   offset from the blob's start is the [k]th restart offset. Offsets and
   the count are u16, little-endian. A block holds at least one entry. *)

module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Clustered = Crimson_storage.Clustered
module Slotted = Crimson_storage.Slotted
module Tree = Crimson_tree.Tree

let restart_every = 16

(* A block row's two ints take at most 9 varint bytes each and the
   blob's length 2, so a blob of [block_bytes] fits one page. *)
let block_bytes = Slotted.max_record - 20

(* A node row's columns other than its name take at most 99 bytes: nine
   varint ints, two floats and the name's length. One entry adds fewer
   to its name in a block: two lengths, an id, an offset and a count. *)
let max_name = Slotted.max_record - 128

let name_of t v = match Tree.name t v with Some s -> s | None -> ""

type t = {
  tree : int;
  group : Clustered.group;
  name : Bytes.t; (* the name of the entry last decoded ... *)
  mutable len : int; (* ... of this length *)
  mutable pos : int; (* where the next entry starts on the pinned page *)
}

let of_group ~tree group =
  { tree; group; name = Bytes.create block_bytes; len = 0; pos = 0 }

let open_run repo ~tree =
  of_group ~tree (Clustered.open_group (Repo.clustered repo Repo.names) [ tree ])

(* ------------------------------ Write ------------------------------ *)

let sort t =
  let n = Tree.node_count t in
  let named = ref 0 in
  for v = 0 to n - 1 do
    if name_of t v <> "" then incr named
  done;
  let ids = Array.make !named 0 and i = ref 0 in
  for v = 0 to n - 1 do
    if name_of t v <> "" then begin
      ids.(!i) <- v;
      incr i
    end
  done;
  (* Stable, so equal names keep their ascending ids. *)
  Array.stable_sort (fun a b -> String.compare (name_of t a) (name_of t b)) ids;
  ids

let lowest t sorted name =
  (* The first entry whose name does not sort before [name]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (name_of t sorted.(mid)) name < 0 then search (mid + 1) hi
      else search lo mid
  in
  let i = search 0 (Array.length sorted) in
  if i < Array.length sorted && String.equal (name_of t sorted.(i)) name then
    Some sorted.(i)
  else None

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let rec add_varint buf v =
  if v < 0x80 then Buffer.add_uint8 buf v
  else begin
    Buffer.add_uint8 buf (v land 0x7f lor 0x80);
    add_varint buf (v lsr 7)
  end

let shared_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* Encode entries [from ..] of [sorted] into [buf], as many as fit one
   block, and return the index past the last. [restarts] holds the
   block's restart offsets meanwhile. *)
let fill buf restarts t sorted from =
  Buffer.clear buf;
  let n = Array.length sorted in
  let rec add i k prev =
    if i = n then i
    else
      let v = sorted.(i) in
      let name = name_of t v in
      let restart = k mod restart_every = 0 in
      let shared = if restart then 0 else shared_prefix prev name in
      let suffix = String.length name - shared in
      let bytes = varint_size shared + varint_size suffix + suffix + varint_size v in
      (* The restart table after this entry, with its count. *)
      let table = (2 * ((k / restart_every) + 1)) + 2 in
      if Buffer.length buf + bytes + table > block_bytes then begin
        if k = 0 then
          invalid_arg
            (Printf.sprintf "Name_run.write: node %d's name of %d bytes exceeds %d" v
               (String.length name) max_name);
        i
      end
      else begin
        if restart then restarts.(k / restart_every) <- Buffer.length buf;
        add_varint buf shared;
        add_varint buf suffix;
        Buffer.add_substring buf name shared suffix;
        add_varint buf v;
        add (i + 1) (k + 1) name
      end
  in
  let next = add from 0 "" in
  let count = (next - from + restart_every - 1) / restart_every in
  for r = 0 to count - 1 do
    Buffer.add_uint16_le buf restarts.(r)
  done;
  Buffer.add_uint16_le buf count;
  next

let write repo ~tree t sorted =
  let buf = Buffer.create block_bytes in
  (* An entry takes at least 3 bytes. *)
  let restarts = Array.make ((block_bytes / (3 * restart_every)) + 2) 0 in
  (* Where each block starts, so that the blocks go out in one pass with
     their count known; each is encoded again as it is written. *)
  let rec pack from acc =
    if from >= Array.length sorted then Array.of_list (List.rev acc)
    else pack (fill buf restarts t sorted from) (from :: acc)
  in
  let starts = pack 0 [] in
  let first_key b =
    let v = sorted.(starts.(b)) in
    Key.cat [ Key.text (name_of t v); Key.int v ]
  in
  of_group ~tree
    (Clustered.write (Repo.clustered repo Repo.names) [ tree ] ~first_key ~row_runs:true
       ~rows:(Array.length starts) (fun b ->
         ignore (fill buf restarts t sorted starts.(b));
         Record.[| VInt tree; VInt b; VBlob (Buffer.contents buf) |]))

(* ------------------------------ Read ------------------------------- *)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Crimson_util.Codec.Corrupt s)) fmt

(* Top-level loops, not local closures: a lookup allocates nothing per
   entry it decodes. *)
let rec varint_from r buf limit shift acc =
  if r.pos >= limit || shift > 56 then corrupt "Name_run: bad varint at offset %d" r.pos;
  let b = Bytes.get_uint8 buf r.pos in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_from r buf limit (shift + 7) acc

let varint r buf limit = varint_from r buf limit 0 0

(* Decode the entry at [r.pos], which ends before [limit], into [r.name]
   and return its id. *)
let entry r buf limit =
  let shared = varint r buf limit in
  let suffix = varint r buf limit in
  if shared > r.len || suffix > limit - r.pos || shared + suffix > Bytes.length r.name then
    corrupt "Name_run: the entry before offset %d overruns its block" r.pos;
  Bytes.blit buf r.pos r.name shared suffix;
  r.len <- shared + suffix;
  r.pos <- r.pos + suffix;
  varint r buf limit

let rec compare_from r q m i =
  if i = m then Int.compare r.len (String.length q)
  else
    let c = Char.compare (Bytes.unsafe_get r.name i) (String.unsafe_get q i) in
    if c <> 0 then c else compare_from r q m (i + 1)

(* [r.name] against [q], as [String.compare] orders them. *)
let compare_name r q = compare_from r q (min r.len (String.length q)) 0

(* The restart count of the block at [off], and where its restart table
   starts: the end of its entries. *)
let layout buf off len =
  let count = if len < 2 then 0 else Bytes.get_uint16_le buf (off + len - 2) in
  let table = off + len - 2 - (2 * count) in
  if count = 0 || table <= off then
    corrupt "Name_run: a block of %d bytes with %d restarts" len count;
  (count, table)

let restart buf off table k =
  let p = off + Bytes.get_uint16_le buf (table + (2 * k)) in
  if p >= table then corrupt "Name_run: restart %d points past the entries" k;
  p

(* The id of [q]'s first entry in the block, or -1: a binary search of
   the restarts for the last whose name sorts before [q], then that
   restart's entries, up to the next restart, which does not. *)
let search_block r q buf off len =
  let count, table = layout buf off len in
  let decode_at p =
    r.pos <- p;
    r.len <- 0;
    ignore (entry r buf table)
  in
  let rec last lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      decode_at (restart buf off table mid);
      if compare_name r q < 0 then last mid hi else last lo (mid - 1)
  in
  let k =
    decode_at (restart buf off table 0);
    if compare_name r q >= 0 then -1 else last 0 (count - 1)
  in
  let from = restart buf off table (max k 0) in
  let stop =
    if k < 0 then from else if k + 1 < count then restart buf off table (k + 1) else table
  in
  r.pos <- from;
  r.len <- 0;
  let rec scan () =
    let at = r.pos in
    let id = entry r buf table in
    let c = compare_name r q in
    if c = 0 then id else if c > 0 || at >= stop || r.pos >= table then -1 else scan ()
  in
  scan ()

let find r q =
  let probe = Key.text q in
  let b = Clustered.below r.group probe in
  let decode rd =
    let id = Record.Reader.in_place rd (search_block r q) in
    Record.Reader.finish rd;
    id
  in
  match if b < 0 then Some (-1) else Clustered.find r.group b decode with
  | None -> None
  | Some id when id >= 0 -> Some id
  | Some _ ->
      (* Not in block [b]: the name's lowest id, if any, opens the next
         block, and that block's directory key holds it. *)
      let runs = Clustered.runs r.group in
      if b + 1 < Array.length runs && String.starts_with ~prefix:probe runs.(b + 1).key
      then Some (fst (Key.decode_int runs.(b + 1).key ~pos:(String.length probe)))
      else None

(* Block [b]'s entries in order, checking its layout on the way: entry
   [16 k] is restart [k], at the offset its table holds, and shares
   nothing. *)
let block_entries r b f =
  ignore
    (Clustered.find r.group b (fun rd ->
         Record.Reader.in_place rd (fun buf off len ->
             let count, table = layout buf off len in
             r.pos <- off;
             let k = ref 0 in
             while r.pos < table do
               if !k mod restart_every = 0 then begin
                 let nth = !k / restart_every in
                 if nth >= count || restart buf off table nth <> r.pos then
                   corrupt "Name_run: entry %d is not at its restart offset" !k;
                 r.len <- 0
               end;
               let id = entry r buf table in
               f (Bytes.sub_string r.name 0 r.len) id;
               incr k
             done;
             if (!k + restart_every - 1) / restart_every <> count then
               corrupt "Name_run: %d entries under %d restarts" !k count);
         Record.Reader.finish rd))

let iter r f =
  for b = 0 to Clustered.size r.group - 1 do
    block_entries r b f
  done

exception Bad of string

let check r ~names =
  let g = r.group in
  match Clustered.check g ~rows:(Clustered.size g) with
  | Error _ as e -> e
  | Ok () -> (
      let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
      let runs = Clustered.runs g and n = Array.length names in
      let count = ref 0 and prev = ref "" and prev_id = ref (-1) in
      let error s = Error (Printf.sprintf "names (%d): %s" r.tree s) in
      try
        if Array.length runs <> Clustered.size g then
          fail "%d blocks in %d runs: a block is not a run of its own" (Clustered.size g)
            (Array.length runs);
        for b = 0 to Clustered.size g - 1 do
          let first = !count in
          block_entries r b (fun name id ->
              if !count = first && runs.(b).key <> Key.cat [ Key.text name; Key.int id ]
              then fail "block %d's directory key is not its first entry" b;
              let c = String.compare !prev name in
              if !count > 0 && (c > 0 || (c = 0 && !prev_id >= id)) then
                fail "entry %d (%S, %d) does not follow (%S, %d)" !count name id !prev
                  !prev_id;
              if id < 0 || id >= n then
                fail "entry %d names node %d, outside the tree" !count id;
              if not (String.equal names.(id) name) then
                fail "entry %d calls node %d %S, and its row %S" !count id name names.(id);
              prev := name;
              prev_id := id;
              incr count)
        done;
        let named =
          Array.fold_left (fun acc s -> if s = "" then acc else acc + 1) 0 names
        in
        if !count <> named then fail "%d entries for %d named nodes" !count named;
        Ok ()
      with
      | Bad s -> error s
      | Crimson_storage.Error.Error e -> error (Crimson_storage.Error.to_string e))
