(** Who serves the sessions {!Server.run} admits, chosen by fleet size.

    - {!local} ([workers = 1]): the calling domain itself. Its
      connection loop adopts every admitted connection into one
      {!Worker_core} over the caller's read-write repository — no
      domain, no second open of the repository, no history channel.
      (A spawned worker opens a second repository, and every pager
      preallocates 256 × 4 KiB frames per file.)
    - {!spawn} ([workers >= 2]): N shared-nothing worker domains, each
      running the same {!Conn.serve} loop over its own read-only open
      of the repository directory and the connections handed to it
      round-robin. The calling domain keeps the only read-write handle
      and inserts every query-history row the workers send over a
      serialized channel. TOP merges the answering worker's live
      sessions with every peer's published rows; SLOWLOG merges ring
      slices the same way. *)

type t = {
  beats : Watchdog.beat array;  (** One heartbeat per worker, for the watchdog. *)
  place : Unix.file_descr -> id:int -> Conn.kind -> unit;
      (** Serve an admitted connection as session [id]. *)
  sources : (Unix.file_descr * (unit -> unit)) list;
      (** Extra read sources for the calling domain's loop. *)
  tick : unit -> unit;  (** Run every loop iteration of the calling domain. *)
  slowlog : unit -> Crimson_obs.Trace.record list list;
      (** Every worker's slowlog ring, for [/slowlog]. *)
  stop : unit -> unit;
      (** Shutdown: drain and join the workers, write out queued
          history. *)
}

val local :
  config:Worker_core.config -> active:int Atomic.t -> Conn.set -> Crimson_core.Repo.t -> t
(** Worker 1 of 1 on the calling domain, serving in the given set. *)

val spawn :
  config:Worker_core.config ->
  active:int Atomic.t ->
  stop:bool Atomic.t ->
  Crimson_core.Repo.t ->
  t
(** Spawn [config.workers] worker domains and return once every one
    holds its read-only repository. Workers leave their loops when
    [stop] is set. [repo] must be on disk ([Invalid_argument]
    otherwise); raises {!Conn.Bind_error} when a worker cannot open
    it. *)
