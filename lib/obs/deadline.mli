(** Cooperative, domain-local request deadlines.

    Replaces the server's SIGALRM request timer: signals neither
    compose with OCaml 5 domains nor interrupt requests blocked in C
    code. Each domain carries one absolute deadline; hot paths (node
    resolution, row scans) call {!check}, which raises {!Expired}
    once the wall clock passes it. The clock read is counter-gated so a
    call costs a load, a decrement and a branch when no deadline is
    armed or the countdown has not elapsed. *)

exception Expired
(** Raised by {!check} when the armed deadline has passed.
    Only {!with_timeout} should catch it — intermediate handlers (query
    wrappers with catch-all error conversion) must re-raise. *)

val check : unit -> unit
(** Cheap poll for hot loops: reads the clock every [poll_every]-th
    call while a deadline is armed; no-op otherwise. *)

val active : unit -> bool
(** Whether the calling domain currently has a deadline armed. *)

val remaining : unit -> float option
(** Seconds until the armed deadline (negative once past); [None] when
    no deadline is armed. *)

val with_timeout : float -> (unit -> 'a) -> ('a, [ `Timeout ]) result
(** [with_timeout seconds f] runs [f] with the domain deadline set to
    [now + seconds] (tightened against any enclosing deadline — nesting
    takes the minimum) and restores the previous deadline on exit.
    Returns [Error `Timeout] when [f] was aborted by this scope's
    deadline; re-raises {!Expired} when an enclosing scope's deadline
    has passed as well. [seconds <= 0] arms nothing and just runs [f]
    under the enclosing deadline. *)
