module Table_printer = Crimson_util.Table_printer

(* Domain safety: server workers run as OCaml 5 domains and share the
   metric handles captured at module initialisation (request counters,
   summary hit counters, ...). Counters and gauges are single
   [Atomic.t] cells — lock-free on the hot path. Histograms
   mutate several fields per observation, so each instance carries its
   own mutex; contention is negligible because observations happen at
   request granularity, not per node. The registry itself is touched
   only at metric creation and export time and sits behind one global
   mutex. *)

module Counter = struct
  (* A counter named in [Cost.registry] reads the sum of its field over
     every domain's cost record, plus its cell: resetting records a
     baseline in the cell instead of writing into live records. Any
     other counter is its cell alone. *)
  type t = {
    name : string;
    value : int Atomic.t;
    base : unit -> int;
  }

  let make name =
    let base =
      match List.assoc_opt name Cost.registry with
      | Some get -> fun () -> Cost.total get
      | None -> fun () -> 0
    in
    { name; value = Atomic.make 0; base }

  let incr t = ignore (Atomic.fetch_and_add t.value 1)
  let add t n = ignore (Atomic.fetch_and_add t.value n)
  let value t = t.base () + Atomic.get t.value
  let reset t = Atomic.set t.value (-t.base ())
  let name t = t.name
end

module Gauge = struct
  (* A gauge is its cell, unless it was made to read state its owner
     keeps: then [value] is that reading, and [set], [add] and resets
     only move the unread cell. *)
  type t = {
    name : string;
    value : float Atomic.t;
    read : (unit -> float) option;
  }

  let make ?read name = { name; value = Atomic.make 0.0; read }
  let set t v = Atomic.set t.value v

  let rec add t v =
    let cur = Atomic.get t.value in
    if not (Atomic.compare_and_set t.value cur (cur +. v)) then add t v

  let value t = match t.read with Some read -> read () | None -> Atomic.get t.value
  let name t = t.name
end

module Histogram = struct
  (* Log-scale buckets: bucket [i] counts samples in
     (base * growth^(i-1), base * growth^i]; bucket 0 additionally takes
     everything <= base (including 0). With base = 1e-6 and
     growth = 2^(1/4) the 192 buckets span 1 ns to ~80 minutes in
     milliseconds, with <= 19% relative bucket width. *)
  let base = 1e-6
  let growth = Float.pow 2.0 0.25
  let log_growth = Float.log growth
  let n_buckets = 192

  type t = {
    name : string;
    lock : Mutex.t;
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let make name =
    {
      name;
      lock = Mutex.create ();
      buckets = Array.make n_buckets 0;
      count = 0;
      sum = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let bucket_of v =
    if v <= base then 0
    else
      let i = int_of_float (Float.ceil (Float.log (v /. base) /. log_growth)) in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  let observe t v =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    locked t (fun () ->
        t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
        t.count <- t.count + 1;
        t.sum <- t.sum +. v;
        if v < t.min then t.min <- v;
        if v > t.max then t.max <- v)

  (* Unlocked readers, shared by the public accessors (each takes the
     lock once) and by [percentile] (which needs several of them under a
     single critical section — the mutex is not reentrant). *)
  let min_u t = if t.count = 0 then 0.0 else t.min
  let max_u t = if t.count = 0 then 0.0 else t.max
  let mean_u t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let count t = locked t (fun () -> t.count)
  let sum t = locked t (fun () -> t.sum)
  let mean t = locked t (fun () -> mean_u t)
  let min t = locked t (fun () -> min_u t)
  let max t = locked t (fun () -> max_u t)
  let bucket_hi i = base *. Float.pow growth (float_of_int i)
  let bucket_lo i = if i = 0 then 0.0 else base *. Float.pow growth (float_of_int (i - 1))

  let percentile_u t p =
    if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p outside [0,100]";
    if t.count = 0 then 0.0
    else begin
      let target = p /. 100.0 *. float_of_int t.count in
      let rec walk i cum =
        if i >= n_buckets then max_u t
        else
          let c = t.buckets.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= target then begin
            let frac =
              if c = 0 then 1.0
              else Float.max 0.0 (Float.min 1.0 ((target -. cum) /. float_of_int c))
            in
            bucket_lo i +. (frac *. (bucket_hi i -. bucket_lo i))
          end
          else walk (i + 1) cum'
      in
      let est = walk 0 0.0 in
      Float.max (min_u t) (Float.min (max_u t) est)
    end

  let percentile t p = locked t (fun () -> percentile_u t p)
  let name t = t.name

  (* Non-empty buckets as (upper bound, cumulative count), ascending.
     The final entry's cumulative count equals [count t]; +Inf is the
     exporter's job. *)
  let cumulative_buckets t =
    locked t (fun () ->
        let out = ref [] and cum = ref 0 in
        for i = 0 to n_buckets - 1 do
          if t.buckets.(i) > 0 then begin
            cum := !cum + t.buckets.(i);
            out := (bucket_hi i, !cum) :: !out
          end
        done;
        List.rev !out)

  let reset t =
    locked t (fun () ->
        Array.fill t.buckets 0 n_buckets 0;
        t.count <- 0;
        t.sum <- 0.0;
        t.min <- Float.infinity;
        t.max <- Float.neg_infinity)
end

(* ------------------------------ Registry ----------------------------- *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name wrap make project =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | None ->
          let m = make name in
          Hashtbl.replace registry name (wrap m);
          m
      | Some existing -> (
          match project existing with
          | Some m -> m
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s is already registered as a %s" name
                   (kind existing))))

let counter name =
  register name
    (fun c -> Counter c)
    Counter.make
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge name =
  register name
    (fun g -> Gauge g)
    Gauge.make
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let gauge_reading name read =
  register name
    (fun g -> Gauge g)
    (Gauge.make ~read)
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let histogram name =
  register name
    (fun h -> Histogram h)
    Histogram.make
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

(* The cost-record names exist from the start, like every counter a
   linked module registers at initialisation. *)
let () = List.iter (fun (name, _) -> ignore (counter name)) Cost.registry

let find name = with_registry (fun () -> Hashtbl.find_opt registry name)

(* HELP texts, keyed by registry (dotted) name. Kept outside the metric
   records so help can be attached before or after registration. *)
let help_texts : (string, string) Hashtbl.t = Hashtbl.create 16

let set_help name text =
  with_registry (fun () -> Hashtbl.replace help_texts name text)

let help_of name = with_registry (fun () -> Hashtbl.find_opt help_texts name)

let snapshot () =
  with_registry (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_value name =
  match find name with
  | Some (Counter c) -> Counter.value c
  | Some (Gauge _ | Histogram _) | None -> 0

let reset_all () =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c -> Counter.reset c
      | Gauge g -> Gauge.set g 0.0
      | Histogram h -> Histogram.reset h)
    (snapshot ())

(* ----------------------------- Exporters ----------------------------- *)

let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.3f" x

let to_text () =
  let metrics = snapshot () in
  let scalars, histograms =
    List.partition (fun (_, m) -> match m with Histogram _ -> false | _ -> true) metrics
  in
  let buf = Buffer.create 1024 in
  if scalars <> [] then begin
    let t =
      Table_printer.create
        ~columns:[ ("metric", Table_printer.Left); ("value", Table_printer.Right) ]
    in
    List.iter
      (fun (name, m) ->
        match m with
        | Counter c -> Table_printer.add_row t [ name; string_of_int (Counter.value c) ]
        | Gauge g -> Table_printer.add_row t [ name; fnum (Gauge.value g) ]
        | Histogram _ -> ())
      scalars;
    Buffer.add_string buf (Table_printer.render t)
  end;
  if histograms <> [] then begin
    if scalars <> [] then Buffer.add_char buf '\n';
    let t =
      Table_printer.create
        ~columns:
          [
            ("histogram (ms)", Table_printer.Left);
            ("count", Table_printer.Right);
            ("mean", Table_printer.Right);
            ("p50", Table_printer.Right);
            ("p90", Table_printer.Right);
            ("p99", Table_printer.Right);
            ("max", Table_printer.Right);
          ]
    in
    List.iter
      (fun (name, m) ->
        match m with
        | Histogram h ->
            Table_printer.add_row t
              [
                name;
                string_of_int (Histogram.count h);
                Printf.sprintf "%.3f" (Histogram.mean h);
                Printf.sprintf "%.3f" (Histogram.percentile h 50.0);
                Printf.sprintf "%.3f" (Histogram.percentile h 90.0);
                Printf.sprintf "%.3f" (Histogram.percentile h 99.0);
                Printf.sprintf "%.3f" (Histogram.max h);
              ]
        | Counter _ | Gauge _ -> ())
      histograms;
    Buffer.add_string buf (Table_printer.render t)
  end;
  Buffer.contents buf

(* Prometheus text exposition format (version 0.0.4). Names get a
   [crimson_] prefix and dots/dashes fold to underscores. Histograms
   export as native cumulative [_bucket{le=...}] series over the
   non-empty log-scale buckets, plus a parallel [<name>_summary] family
   carrying the pre-computed quantiles. Units stay milliseconds,
   matching the rest of the registry. *)
let prometheus_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "crimson_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prometheus_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* HELP text escaping per the exposition format: backslash and newline
   only. *)
let prometheus_escape_help text =
  let buf = Buffer.create (String.length text) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    text;
  Buffer.contents buf

let to_prometheus () =
  let buf = Buffer.create 4096 in
  let meta ~raw name kind =
    (match help_of raw with
    | Some text ->
        Printf.bprintf buf "# HELP %s %s\n" name (prometheus_escape_help text)
    | None -> ());
    Printf.bprintf buf "# TYPE %s %s\n" name kind
  in
  List.iter
    (fun (name, m) ->
      let pname = prometheus_name name in
      match m with
      | Counter c ->
          meta ~raw:name pname "counter";
          Printf.bprintf buf "%s %d\n" pname (Counter.value c)
      | Gauge g ->
          meta ~raw:name pname "gauge";
          Printf.bprintf buf "%s %s\n" pname (prometheus_float (Gauge.value g))
      | Histogram h ->
          meta ~raw:name pname "histogram";
          List.iter
            (fun (le, cum) ->
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" pname
                (prometheus_float le) cum)
            (Histogram.cumulative_buckets h);
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" pname (Histogram.count h);
          Printf.bprintf buf "%s_sum %s\n" pname (prometheus_float (Histogram.sum h));
          Printf.bprintf buf "%s_count %d\n" pname (Histogram.count h);
          (* Quantiles stay available as a sibling summary family. *)
          let sname = pname ^ "_summary" in
          meta ~raw:(name ^ "_summary") sname "summary";
          List.iter
            (fun (q, p) ->
              Printf.bprintf buf "%s{quantile=\"%s\"} %s\n" sname q
                (prometheus_float (Histogram.percentile h p)))
            [ ("0.5", 50.0); ("0.9", 90.0); ("0.99", 99.0) ];
          Printf.bprintf buf "%s_sum %s\n" sname (prometheus_float (Histogram.sum h));
          Printf.bprintf buf "%s_count %d\n" sname (Histogram.count h))
    (snapshot ());
  Buffer.contents buf

let to_json () =
  let metrics = snapshot () in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
          counters := (name, Json.Num (float_of_int (Counter.value c))) :: !counters
      | Gauge g -> gauges := (name, Json.Num (Gauge.value g)) :: !gauges
      | Histogram h ->
          histograms :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Num (float_of_int (Histogram.count h)));
                  ("sum", Json.Num (Histogram.sum h));
                  ("min", Json.Num (Histogram.min h));
                  ("max", Json.Num (Histogram.max h));
                  ("mean", Json.Num (Histogram.mean h));
                  ("p50", Json.Num (Histogram.percentile h 50.0));
                  ("p90", Json.Num (Histogram.percentile h 90.0));
                  ("p99", Json.Num (Histogram.percentile h 99.0));
                ] )
            :: !histograms)
    metrics;
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]
