(* The trace pipeline: collect one span tree per top-level request, and
   fan completed trace records out to (a) the slow-query log when the
   root span exceeds a threshold and (b) an optional JSONL sink with
   crash-safe appends and size-capped rotation.

   Collection is scoped and has a reader or does not happen: [timed
   ~name ~meta f] starts a trace only while a slowlog threshold is set
   or the sink is installed. The tree is [Span]'s own frames; [Span]
   hands the finished root back when it exits, also while unwinding an
   exception. A nested [timed] joins the enclosing trace as an ordinary
   span instead of starting a second one.

   Domain model: the collecting trace is domain-local (each server
   worker assembles its own). Each domain's slowlog ring sits behind its
   own mutex on one process-wide list, so a reader on any domain walks
   every domain's entries. Trace ids come from one process-global atomic
   so ids stay unique across workers, and the JSONL sink is
   process-global behind a mutex so all workers append to the same
   file. *)

type span = Span.span = {
  name : string;
  depth : int;
  start_ms : float; (* offset from the trace's start *)
  elapsed_ms : float;
  attrs : (string * Json.t) list;
  children : span list;
}

type record = {
  id : int;
  started_at : float; (* Unix time, seconds *)
  meta : (string * Json.t) list;
  root : span;
}

let root_elapsed_ms r = r.root.elapsed_ms

(* ---------------------------- Telemetry ----------------------------- *)

let m_records = Metrics.counter "obs.trace.records"
let m_slow = Metrics.counter "obs.trace.slow"
let m_dropped = Metrics.counter "obs.trace.dropped_events"
let m_sink_writes = Metrics.counter "obs.trace.sink.writes"
let m_sink_rotations = Metrics.counter "obs.trace.sink.rotations"
let m_sink_errors = Metrics.counter "obs.trace.sink.errors"

(* Slow-query records displaced from a full slowlog ring, whether or
   not SLOWLOG had returned them — visible in [crimson stats --json]. *)
let m_slowlog_dropped = Metrics.counter "obs.trace.slowlog.dropped"

let () =
  Metrics.set_help "obs.trace.slowlog.dropped"
    "Slow-query records displaced from a full slowlog ring, whether or not \
     SLOWLOG had returned them.";
  Metrics.set_help "obs.trace.sink.rotations"
    "JSONL trace sink rotations (previous generation renamed to .1)."

(* ---------------------------- Slowlog rings -------------------------- *)

module Ring = struct
  type 'a t = { mutable slots : 'a option array; mutable next : int }

  let create n = { slots = Array.make (max 1 n) None; next = 0 }

  (* Returns true when a record was displaced (ring full). *)
  let push r x =
    let displaced = r.slots.(r.next) <> None in
    r.slots.(r.next) <- Some x;
    r.next <- (r.next + 1) mod Array.length r.slots;
    displaced

  (* Newest first. *)
  let recent r =
    let cap = Array.length r.slots in
    let out = ref [] in
    (try
       for i = 0 to cap - 1 do
         let idx = (((r.next - 1 - i) mod cap) + cap) mod cap in
         match r.slots.(idx) with
         | None -> raise Exit
         | Some x -> out := x :: !out
       done
     with Exit -> ());
    List.rev !out

  let clear r = { slots = Array.make (Array.length r.slots) None; next = 0 }
end

let default_slowlog_capacity = 64
let default_max_events = 4096

(* The ring capacity is a process-wide setting. A domain's slowlog ring
   is written only by that domain but read by any, so it sits behind its
   own mutex on one process-wide list, like the cost records: a reader
   walks the list and never waits on a busy domain for longer than one
   push. Rings stay listed after their domain exits. *)
let slowlog_capacity = Atomic.make default_slowlog_capacity

type slow_ring = { lock : Mutex.t; mutable ring : record Ring.t }

let slow_rings : slow_ring list Atomic.t = Atomic.make []

let rec enlist r =
  let l = Atomic.get slow_rings in
  if not (Atomic.compare_and_set slow_rings l (r :: l)) then enlist r

let slow_key : slow_ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = { lock = Mutex.create (); ring = Ring.create (Atomic.get slowlog_capacity) } in
      enlist r;
      r)

let slow_threshold : float option Atomic.t = Atomic.make None
let max_events = Atomic.make default_max_events

let set_slowlog_capacity n =
  Atomic.set slowlog_capacity (max 1 n);
  let r = Domain.DLS.get slow_key in
  Mutex.protect r.lock (fun () -> r.ring <- Ring.create (max 1 n))

let set_slowlog_ms t = Atomic.set slow_threshold t
let slowlog_threshold () = Atomic.get slow_threshold
let set_max_events n = Atomic.set max_events (max 1 n)

(* Interleave rings into one timeline, newest first. The order is
   total (started_at desc, then trace id desc), so repeated reads never
   flap. *)
let merge_records ?n rings =
  let sorted =
    List.sort
      (fun (a : record) (b : record) ->
        match Float.compare b.started_at a.started_at with
        | 0 -> compare b.id a.id
        | c -> c)
      (List.concat rings)
  in
  match n with
  | None -> sorted
  | Some k -> List.filteri (fun i _ -> i < k) sorted

let slowlog ?n () =
  Atomic.get slow_rings
  |> List.map (fun r -> Mutex.protect r.lock (fun () -> Ring.recent r.ring))
  |> merge_records ?n

let slowlog_reset () =
  List.iter
    (fun r -> Mutex.protect r.lock (fun () -> r.ring <- Ring.clear r.ring))
    (Atomic.get slow_rings)

(* ------------------------------- JSON -------------------------------- *)

let rec span_to_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("depth", Json.Num (float_of_int s.depth));
      ("start_ms", Json.Num s.start_ms);
      ("elapsed_ms", Json.Num s.elapsed_ms);
      ("attrs", Json.Obj s.attrs);
      ("children", Json.List (List.map span_to_json s.children));
    ]

let record_to_json r =
  Json.Obj
    [
      ("trace", Json.Num (float_of_int r.id));
      ("started_at", Json.Num r.started_at);
      ("meta", Json.Obj r.meta);
      ("root", span_to_json r.root);
    ]

let field_err what = Error (Printf.sprintf "trace record lacks %s" what)

let num_field name j =
  match Json.member name j with
  | Some (Json.Num v) -> Ok v
  | _ -> field_err (Printf.sprintf "numeric %S" name)

let obj_field name j =
  match Json.member name j with
  | Some (Json.Obj fields) -> Ok fields
  | _ -> field_err (Printf.sprintf "object %S" name)

let rec span_of_json j =
  match (Json.member "name" j, num_field "depth" j) with
  | Some (Json.Str name), Ok depth -> (
      match (num_field "start_ms" j, num_field "elapsed_ms" j) with
      | Ok start_ms, Ok elapsed_ms -> (
          let attrs =
            match Json.member "attrs" j with Some (Json.Obj a) -> a | _ -> []
          in
          match Json.member "children" j with
          | Some (Json.List kids) ->
              let rec decode acc = function
                | [] -> Ok (List.rev acc)
                | k :: rest -> (
                    match span_of_json k with
                    | Ok s -> decode (s :: acc) rest
                    | Error _ as e -> e)
              in
              (match decode [] kids with
              | Ok children ->
                  Ok
                    {
                      name;
                      depth = int_of_float depth;
                      start_ms;
                      elapsed_ms;
                      attrs;
                      children;
                    }
              | Error _ as e -> e)
          | _ -> field_err "span children")
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | _, _ -> field_err "span name/depth"

let record_of_json j =
  match (num_field "trace" j, num_field "started_at" j) with
  | Ok id, Ok started_at -> (
      let meta = match obj_field "meta" j with Ok m -> m | Error _ -> [] in
      match Json.member "root" j with
      | Some root_j -> (
          match span_of_json root_j with
          | Ok root -> Ok { id = int_of_float id; started_at; meta; root }
          | Error _ as e -> e)
      | None -> field_err "root span")
  | (Error _ as e), _ | _, (Error _ as e) -> e

(* ---------------------------- JSONL sink ----------------------------- *)

(* Process-global (shared rotation machinery in [Jsonl_sink]): every
   worker domain appends finished traces to the same JSONL file. *)
let sink =
  Jsonl_sink.make
    {
      Jsonl_sink.c_writes = m_sink_writes;
      c_rotations = m_sink_rotations;
      c_errors = m_sink_errors;
    }

let close_sink () = Jsonl_sink.close sink
let set_sink ?max_bytes path = Jsonl_sink.set ?max_bytes sink path
let sink_path () = Jsonl_sink.path sink
let sink_write line = Jsonl_sink.write sink line
let flush () = Jsonl_sink.flush sink

(* ---------------------------- Collection ----------------------------- *)

let next_id = Atomic.make 1
let collecting = Span.collecting
let current_id = Span.trace_id
let sink_installed () = Jsonl_sink.installed sink

let finalize ~id ~started_at ~meta root ~dropped =
  let meta =
    if dropped = 0 then meta
    else begin
      Metrics.Counter.add m_dropped dropped;
      meta @ [ ("dropped_events", Json.Num (float_of_int dropped)) ]
    end
  in
  let record = { id; started_at; meta; root } in
  Metrics.Counter.incr m_records;
  (match Atomic.get slow_threshold with
  | Some t when root.elapsed_ms >= t ->
      Metrics.Counter.incr m_slow;
      let r = Domain.DLS.get slow_key in
      Mutex.lock r.lock;
      let displaced = Ring.push r.ring record in
      Mutex.unlock r.lock;
      if displaced then Metrics.Counter.incr m_slowlog_dropped
  | Some _ | None -> ());
  if sink_installed () then
    sink_write (Json.to_string (record_to_json record) ^ "\n")

let timed ~name ?(meta = []) f =
  if Span.collecting () || (Atomic.get slow_threshold = None && not (sink_installed ()))
  then Span.timed ~name f (* joins the enclosing trace, or has no reader *)
  else
    let id = Atomic.fetch_and_add next_id 1 and started_at = Unix.gettimeofday () in
    Span.collect ~id ~max_events:(Atomic.get max_events) ~name
      ~finish:(finalize ~id ~started_at ~meta) f

let with_ ~name ?meta f = fst (timed ~name ?meta f)

(* ------------------------------- Reset ------------------------------- *)

let reset = Span.reset

let child_reset () =
  reset ();
  (* The sink fd is shared with the parent after fork; writing from both
     would interleave rotations and double-count sizes. The child drops
     it (close only decrements the kernel refcount — the parent's sink
     is untouched) and starts with tracing outputs disabled. *)
  close_sink ();
  slowlog_reset ()
