let src = Logs.Src.create "crimson.obs" ~doc:"Crimson telemetry spans"

module Log = (val Logs.src_log src : Logs.LOG)

type span = {
  name : string;
  depth : int;
  start_ms : float;
  elapsed_ms : float;
  attrs : (string * Json.t) list;
  children : span list;
}

(* An open span of the collecting trace. *)
type frame = {
  f_name : string;
  f_depth : int;
  f_start_ms : float;
  mutable f_attrs : (string * Json.t) list; (* newest first *)
  mutable f_children : span list; (* newest first *)
}

(* The collecting trace is the only state spans keep, and it is
   domain-local: every server worker domain assembles its own, so spans
   from parallel requests never interleave. Forked children must call
   [Trace.child_reset] (which calls {!reset}) so they never graft onto
   the parent's tree. *)
type trace = {
  id : int;
  max_events : int;
  mutable t0_ms : float; (* the root's start *)
  mutable frames : frame list; (* innermost first, above one that takes the root *)
  mutable events : int; (* spans kept *)
  mutable skipping : int; (* open spans at or below a dropped one *)
  mutable dropped : int; (* spans dropped at the cap, their subtrees not counted *)
}

let key : trace option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = Domain.DLS.get key
let collecting () = !(current ()) <> None
let trace_id () = match !(current ()) with Some t -> Some t.id | None -> None
let reset () = current () := None
let now_ms () = 1000.0 *. Unix.gettimeofday ()

let attr key value =
  match !(current ()) with
  | Some ({ frames = f :: _; _ } as t) when t.skipping = 0 ->
      f.f_attrs <- (key, value) :: f.f_attrs
  | Some _ | None -> ()

(* Open a span of [t] started at [t0], or drop it, subtree and all, past
   the event cap. *)
let enter t name attrs t0 =
  if t.skipping > 0 || t.events >= t.max_events then begin
    if t.skipping = 0 then t.dropped <- t.dropped + 1;
    t.skipping <- t.skipping + 1;
    None
  end
  else begin
    if t.events = 0 then t.t0_ms <- t0;
    t.events <- t.events + 1;
    let f_depth = match t.frames with p :: _ -> p.f_depth + 1 | [] -> 0 in
    let f_attrs = match attrs with Some thunk -> List.rev (thunk ()) | None -> [] in
    let f = { f_name = name; f_depth; f_start_ms = t0 -. t.t0_ms; f_attrs; f_children = [] } in
    t.frames <- f :: t.frames;
    Some f
  end

(* Close the innermost open span: it joins its parent's children. *)
let leave t frame elapsed_ms =
  match (frame, t.frames) with
  | None, _ -> t.skipping <- t.skipping - 1
  | Some f, _ :: (parent :: _ as rest) ->
      t.frames <- rest;
      parent.f_children <-
        {
          name = f.f_name;
          depth = f.f_depth;
          start_ms = f.f_start_ms;
          elapsed_ms;
          attrs = List.rev f.f_attrs;
          children = List.rev f.f_children;
        }
        :: parent.f_children
  | Some _, _ -> ()

let stop hist name trace frame t0 =
  let elapsed = now_ms () -. t0 in
  Metrics.Histogram.observe hist elapsed;
  (match trace with Some t -> leave t frame elapsed | None -> ());
  Log.debug (fun m -> m "span %s %.3fms" name elapsed);
  elapsed

let run hist name attrs f =
  let t0 = now_ms () in
  let trace = !(current ()) in
  let frame = match trace with Some t -> enter t name attrs t0 | None -> None in
  match f () with
  | v -> (v, stop hist name trace frame t0)
  | exception e ->
      ignore (stop hist name trace frame t0);
      raise e

let timed ~name f = run (Metrics.histogram name) name None f
let with_ ~name f = fst (timed ~name f)
let record hist ?attrs f = fst (run hist (Metrics.Histogram.name hist) attrs f)

let collect ~id ~max_events ~name ~finish f =
  let top = { f_name = ""; f_depth = -1; f_start_ms = 0.0; f_attrs = []; f_children = [] } in
  let t =
    { id; max_events; t0_ms = 0.0; frames = [ top ]; events = 0; skipping = 0; dropped = 0 }
  in
  let cur = current () in
  cur := Some t;
  let close () =
    cur := None;
    match top.f_children with [ root ] -> finish root ~dropped:t.dropped | _ -> ()
  in
  match timed ~name f with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e
