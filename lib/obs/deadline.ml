(* Cooperative request deadlines.

   The server used to bound request time with SIGALRM + ITIMER_REAL.
   Signals do not compose with OCaml 5 domains (the kernel delivers the
   alarm to an arbitrary thread, and per-request timer arming races
   between workers), and they silently fail to interrupt requests
   blocked in C code anyway. Instead each worker domain carries a
   domain-local absolute deadline; the query path calls {!check} at
   every node resolution, which raises {!Expired} once the wall clock
   passes the limit.

   The clock read is gated behind a countdown so the common case costs
   one load, one decrement and one branch per call site — cheap enough
   for per-node granularity. With [poll_every] = 32 and node fetches in
   the microsecond range, expiry is detected well within a millisecond
   of the deadline. *)

exception Expired

type state = {
  mutable limit : float; (* absolute Unix time; infinity = no deadline *)
  mutable countdown : int;
}

let poll_every = 32

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { limit = Float.infinity; countdown = poll_every })

let state () = Domain.DLS.get key
let active () = (state ()).limit < Float.infinity

let expire_check st =
  st.countdown <- poll_every;
  if Unix.gettimeofday () > st.limit then raise Expired

let check () =
  let st = state () in
  if st.limit < Float.infinity then begin
    st.countdown <- st.countdown - 1;
    if st.countdown <= 0 then expire_check st
  end

let remaining () =
  let st = state () in
  if st.limit < Float.infinity then Some (st.limit -. Unix.gettimeofday ())
  else None

let with_timeout seconds f =
  let st = state () in
  let saved_limit = st.limit and saved_countdown = st.countdown in
  let limit =
    if seconds <= 0.0 then saved_limit
    else Float.min saved_limit (Unix.gettimeofday () +. seconds)
  in
  st.limit <- limit;
  st.countdown <- 1 (* first check reads the clock *);
  let restore () =
    st.limit <- saved_limit;
    st.countdown <- saved_countdown
  in
  match f () with
  | v ->
      restore ();
      Ok v
  | exception Expired ->
      restore ();
      (* A nested scope must not swallow an enclosing scope's expiry:
         if the outer deadline has passed too, keep unwinding. *)
      if saved_limit < Float.infinity && Unix.gettimeofday () > saved_limit then
        raise Expired
      else Error `Timeout
  | exception e ->
      restore ();
      raise e
