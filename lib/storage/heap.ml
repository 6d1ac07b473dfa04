let magic = "CRIMHEAP"

type t = {
  pager : Pager.t;
  mutable tail_page : int; (* newest data page; 0 = none yet *)
}

type rid = int

let rid_make ~page ~slot = (page lsl 16) lor slot
let rid_page rid = rid lsr 16
let rid_slot rid = rid land 0xffff
let rid_to_string rid = Printf.sprintf "%d:%d" (rid_page rid) (rid_slot rid)

let create pager =
  if Pager.page_count pager = 0 then begin
    let meta = Pager.allocate pager in
    assert (meta = 0);
    Pager.with_page_mut pager 0 (fun page ->
        Bytes.blit_string magic 0 page 0 (String.length magic))
  end
  else
    Pager.with_page pager 0 (fun page ->
        if Bytes.sub_string page 0 (String.length magic) <> magic then
          Error.fail
            (Error.Corrupt_page
               {
                 file = Option.value (Pager.file_path pager) ~default:"<mem>";
                 detail = "heap: bad magic";
               }));
  { pager; tail_page = Pager.page_count pager - 1 }

let fresh_page t =
  (* Pages beyond the tail only exist after [reset], and are then
     formatted empty — reuse them before growing the file. *)
  let next = t.tail_page + 1 in
  if next >= 1 && next < Pager.page_count t.pager then begin
    t.tail_page <- next;
    next
  end
  else begin
    let id = Pager.allocate t.pager in
    Pager.with_page_mut t.pager id (fun page -> Slotted.init page);
    t.tail_page <- id;
    id
  end

let insert t record =
  (* Try the tail page; on refusal (full data area or full slot
     directory) move to a fresh page, where any record up to
     [Slotted.max_record] fits by construction. *)
  let try_page target =
    Pager.with_page_mut t.pager target (fun page -> Slotted.insert page record)
  in
  let attempt = if t.tail_page = 0 then None else try_page t.tail_page in
  match attempt with
  | Some slot -> rid_make ~page:t.tail_page ~slot
  | None -> (
      let target = fresh_page t in
      match try_page target with
      | Some slot -> rid_make ~page:target ~slot
      | None -> assert false (* empty page holds any record <= max_record *))

let check_rid t rid op =
  let page = rid_page rid in
  if page <= 0 || page >= Pager.page_count t.pager then
    invalid_arg (Printf.sprintf "Heap.%s: rid %s out of range" op (rid_to_string rid))

let get t rid =
  check_rid t rid "get";
  Pager.with_page t.pager (rid_page rid) (fun page -> Slotted.read page (rid_slot rid))

let with_record t rid f =
  check_rid t rid "with_record";
  Pager.with_page t.pager (rid_page rid) (fun page ->
      Slotted.with_record page (rid_slot rid) f)

let with_records t rid ~count f =
  check_rid t rid "with_records";
  Pager.with_page t.pager (rid_page rid) (fun page ->
      let slot = rid_slot rid in
      let rec walk i =
        if i >= count then i
        else
          match Slotted.with_record page (slot + i) (f i) with
          | Some next -> walk (max next (i + 1))
          | None -> i
      in
      walk 0)

let with_slots t rid f =
  check_rid t rid "with_slots";
  Pager.with_page t.pager (rid_page rid) (fun page ->
      let slot = rid_slot rid in
      f (fun i g -> Slotted.with_record page (slot + i) g))

let delete t rid =
  check_rid t rid "delete";
  Pager.with_page_mut t.pager (rid_page rid) (fun page ->
      Slotted.delete page (rid_slot rid))

let iter t f =
  for page_id = 1 to Pager.page_count t.pager - 1 do
    (* Copy out the live records before invoking callbacks, so callbacks
       may touch other pages without holding this pin. *)
    let records =
      Pager.with_page t.pager page_id (fun page ->
          let n = Slotted.count page in
          let acc = ref [] in
          for slot = n - 1 downto 0 do
            match Slotted.read page slot with
            | Some r -> acc := (rid_make ~page:page_id ~slot, r) :: !acc
            | None -> ()
          done;
          !acc)
    in
    List.iter (fun (rid, r) -> f rid r) records
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun rid r -> acc := f !acc rid r);
  !acc

let record_count t = fold t ~init:0 ~f:(fun acc _ _ -> acc + 1)

let reset t =
  for page_id = 1 to Pager.page_count t.pager - 1 do
    Pager.with_page_mut t.pager page_id (fun page -> Slotted.init page)
  done;
  t.tail_page <- (if Pager.page_count t.pager > 1 then 1 else 0)

let pager t = t.pager
let flush t = Pager.flush t.pager
