(** Worker heartbeats and coordinator-side stall detection.

    Each worker owns a {!beat}: it {!tick}s it every event-loop
    iteration and brackets synchronous request handling with
    {!begin_request}/{!end_request}. The coordinator runs {!check}
    periodically over all beats; a worker counts as stalled when its
    in-flight request has exceeded [stall_factor] × its deadline
    budget, or when it has neither beaten nor reported a request for
    [stall_after] seconds. Stall/recovery transitions emit
    [worker_stalled]/[worker_recovered] events into the
    {!Crimson_obs.Events} journal and move the [server.watchdog.*]
    metrics. *)

type beat

val make_beat : worker:int -> beat
val tick : beat -> unit
(** Bump the loop heartbeat (cheap: one atomic incr + timestamp). *)

val begin_request : beat -> verb:string -> session:int -> deadline:float -> unit
(** Publish the in-flight request descriptor. [deadline] is absolute
    (start + the request timeout). *)

val end_request : beat -> unit

type t

val create : stall_after:float -> stall_factor:float -> beat array -> t
(** [stall_after] in seconds (clamped to ≥ 50 ms); [stall_factor]
    clamped to ≥ 1. *)

val interval : t -> float
(** Suggested check cadence: [stall_after / 4], clamped to
    [50 ms, 1 s] — a stall is flagged within one interval of crossing
    its threshold. *)

val check : t -> unit
(** One watchdog pass: re-evaluate every worker, emit transition
    events, update [server.watchdog.*]. *)

val healthy : t -> bool

val to_json : t -> Crimson_obs.Json.t
(** Per-worker detail for [/healthz]: heartbeat age, in-flight request,
    stall reason. *)
