(* Span recorder for the traced run. Spans wrap the benchmark's own
   calls into each layer's public functions; nothing under lib/ is
   instrumented. Spans stay in memory and are written out at exit.

   [span] nests through a stack and serves single-threaded callers;
   client threads record flat spans through [record]. *)

type span = {
  name : string;
  op : int;  (** The operation (replicate, request, step) it belongs to. *)
  parent : int;  (** Index of the enclosing span, -1 at top level. *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let buf : span array ref = ref [||]
let len = ref 0
let stack = ref []
let current_op = ref 0
let lock = Mutex.create ()

let add s =
  Mutex.lock lock;
  if !len = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 bigger 0 !len;
    buf := bigger
  end;
  let i = !len in
  !buf.(i) <- s;
  incr len;
  Mutex.unlock lock;
  i

(* Start the next operation; later spans carry its id. *)
let next_op () =
  incr current_op;
  !current_op

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; op = !current_op; parent; start = Unix.gettimeofday (); stop = nan } in
    let i = add s in
    stack := i :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

let record ~name ~op ~start ~stop =
  if !enabled then ignore (add { name; op; parent = -1; start; stop })

let dur_ms s = 1000.0 *. (s.stop -. s.start)

(* Self time: a span's duration minus the part its child spans cover
   (children of one parent never overlap: they run on one thread). *)
let self_ms () =
  let child = Array.make !len 0.0 in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur_ms s
  done;
  Array.init !len (fun i -> dur_ms !buf.(i) -. child.(i))

type agg = { count : int; total_ms : float; self_ms : float }

let aggregate () =
  let self = self_ms () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    let a =
      Option.value ~default:{ count = 0; total_ms = 0.0; self_ms = 0.0 }
        (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name
      { count = a.count + 1; total_ms = a.total_ms +. dur_ms s; self_ms = a.self_ms +. self.(i) }
  done;
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) tbl [] |> List.sort compare

let find name =
  List.assoc_opt name (aggregate ())
  |> Option.value ~default:{ count = 0; total_ms = 0.0; self_ms = 0.0 }

(* Durations of every span of one name, in recording order. *)
let durations name =
  let acc = ref [] in
  for i = !len - 1 downto 0 do
    let s = !buf.(i) in
    if s.name = name then acc := dur_ms s :: !acc
  done;
  !acc

let print_table () =
  Printf.printf "# spans: name, count, total ms, self ms\n";
  List.iter
    (fun (name, a) -> Printf.printf "#   %-34s %8d %12.3f %12.3f\n" name a.count a.total_ms a.self_ms)
    (aggregate ());
  flush stdout

(* One JSON object per span: name, op, parent, start, end (seconds),
   self time (ms). *)
let write path =
  let self = self_ms () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      for i = 0 to !len - 1 do
        let s = !buf.(i) in
        Printf.fprintf oc
          "{\"i\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_ms\":%.4f}\n"
          i s.name s.op s.parent s.start s.stop self.(i)
      done)
