(* Structured event journal: one JSON line per operational event
   (worker stalls/recoveries, server lifecycle, ...), appended to a
   size-capped JSONL file sharing the trace sink's rotation machinery.

   The journal is process-global: all worker domains and the
   coordinator emit through one sink, so events from the whole fleet
   land in one timeline. Forked children must call [child_reset] so a
   child never shares the parent's rotation. *)

let m_emitted = Metrics.counter "obs.events.emitted"
let m_dropped = Metrics.counter "obs.events.dropped"
let m_sink_writes = Metrics.counter "obs.events.sink.writes"
let m_sink_rotations = Metrics.counter "obs.events.sink.rotations"
let m_sink_errors = Metrics.counter "obs.events.sink.errors"

let () =
  Metrics.set_help "obs.events.emitted"
    "Structured events written to the JSONL event journal.";
  Metrics.set_help "obs.events.dropped"
    "Structured events emitted while no journal was installed.";
  Metrics.set_help "obs.events.sink.rotations"
    "Event journal rotations (previous generation renamed to .1)."

let sink =
  Jsonl_sink.make
    {
      Jsonl_sink.c_writes = m_sink_writes;
      c_rotations = m_sink_rotations;
      c_errors = m_sink_errors;
    }

let set_journal ?max_bytes path = Jsonl_sink.set ?max_bytes sink path
let installed () = Jsonl_sink.installed sink

let event_to_json ~ts ~kind fields =
  Json.Obj (("ts", Json.Num ts) :: ("event", Json.Str kind) :: fields)

let emit ?(fields = []) kind =
  if not (installed ()) then Metrics.Counter.incr m_dropped
  else begin
    let ts = Unix.gettimeofday () in
    Jsonl_sink.write sink (Json.to_string (event_to_json ~ts ~kind fields) ^ "\n");
    Metrics.Counter.incr m_emitted
  end

let flush () = Jsonl_sink.flush sink
let close () = Jsonl_sink.close sink

let child_reset () =
  (* Same contract as the trace sink: the fd is shared with the parent
     after fork, so the child drops it and starts unjournalled. *)
  close ()
