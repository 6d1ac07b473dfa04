module Codec = Crimson_util.Codec

(* Layout:
   [0..1]  u16 slot count
   [2..3]  u16 cell_start: lowest byte offset used by record data
   then the slot directory: per slot, u16 offset and u16 length.
   Offset 0 marks a tombstone (record data never starts below the
   header, so 0 is free as a sentinel). Record bytes are packed from the
   page end downward. *)

let header_size = 4
let dir_entry_size = 4

let init page =
  Codec.set_u16 page 0 0;
  Codec.set_u16 page 2 Page.size

let count page = Codec.get_u16 page 0

let dir_offset slot = header_size + (slot * dir_entry_size)

let slot_entry page slot = (Codec.get_u16 page (dir_offset slot), Codec.get_u16 page (dir_offset slot + 2))

let live_count page =
  let n = count page in
  let live = ref 0 in
  for s = 0 to n - 1 do
    if fst (slot_entry page s) <> 0 then incr live
  done;
  !live

let max_record = Page.size - header_size - dir_entry_size

let insert page record =
  let len = String.length record in
  if len > max_record then
    invalid_arg (Printf.sprintf "Slotted.insert: record of %d bytes exceeds max %d" len max_record);
  let n = count page in
  let cell_start = Codec.get_u16 page 2 in
  let dir_end = header_size + (n * dir_entry_size) in
  (* Unclamped arithmetic: a full directory leaves negative room, which a
     clamp at zero would hide for zero-length records. *)
  if cell_start - dir_end - dir_entry_size < len then None
  else begin
    let off = cell_start - len in
    Bytes.blit_string record 0 page off len;
    Codec.set_u16 page (dir_offset n) off;
    Codec.set_u16 page (dir_offset n + 2) len;
    Codec.set_u16 page 0 (n + 1);
    Codec.set_u16 page 2 off;
    Some n
  end

let check_slot page slot op =
  if slot < 0 || slot >= count page then
    invalid_arg (Printf.sprintf "Slotted.%s: slot %d out of range [0,%d)" op slot (count page))

let read page slot =
  check_slot page slot "read";
  let off, len = slot_entry page slot in
  if off = 0 then None else Some (Bytes.sub_string page off len)

let with_record page slot f =
  check_slot page slot "with_record";
  let off = Codec.get_u16 page (dir_offset slot) in
  if off = 0 then None else Some (f page off (Codec.get_u16 page (dir_offset slot + 2)))

let delete page slot =
  check_slot page slot "delete";
  Codec.set_u16 page (dir_offset slot) 0;
  Codec.set_u16 page (dir_offset slot + 2) 0
