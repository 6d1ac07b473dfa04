(* Unit tests for the telemetry library: counter/gauge/histogram
   semantics, percentile summaries on known distributions, span nesting
   and the text/JSON exporters (including a JSON round-trip). *)

module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Json = Crimson_obs.Json
module Trace = Crimson_obs.Trace
module Events = Crimson_obs.Events

let check = Alcotest.check

(* ------------------------------ Counters --------------------------- *)

let test_counter_semantics () =
  let c = Metrics.counter "test.counter.basic" in
  check Alcotest.int "starts at 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.incr c;
  Metrics.Counter.add c 40;
  check Alcotest.int "incr + add" 42 (Metrics.Counter.value c);
  Metrics.Counter.add c (-2);
  check Alcotest.int "negative add" 40 (Metrics.Counter.value c);
  (* Get-or-create returns the same instance. *)
  let c' = Metrics.counter "test.counter.basic" in
  Metrics.Counter.incr c';
  check Alcotest.int "same instance" 41 (Metrics.Counter.value c);
  check Alcotest.int "counter_value helper" 41 (Metrics.counter_value "test.counter.basic");
  check Alcotest.int "missing counter reads 0" 0 (Metrics.counter_value "test.counter.none");
  (* A cost-record name is registered from the start, and asking for it
     returns that counter, not a second one shadowing the record. *)
  let hits = Metrics.counter "storage.pager.hit" in
  let before = Metrics.counter_value "storage.pager.hit" in
  Crimson_obs.Cost.pager_hit ();
  check Alcotest.int "charge reaches the registry" (before + 1)
    (Metrics.counter_value "storage.pager.hit");
  check Alcotest.int "handle reads the record" (before + 1) (Metrics.Counter.value hits)

let test_kind_collision () =
  ignore (Metrics.counter "test.collision");
  match Metrics.histogram "test.collision" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind collision"
  | exception Invalid_argument _ -> ()

let test_gauge_semantics () =
  let g = Metrics.gauge "test.gauge.basic" in
  check (Alcotest.float 0.0) "starts at 0" 0.0 (Metrics.Gauge.value g);
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.add g 0.5;
  check (Alcotest.float 1e-9) "set + add" 3.0 (Metrics.Gauge.value g)

(* ----------------------------- Histograms -------------------------- *)

let test_histogram_basic () =
  let h = Metrics.histogram "test.hist.basic" in
  check Alcotest.int "empty count" 0 (Metrics.Histogram.count h);
  check (Alcotest.float 0.0) "empty mean" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "empty p50" 0.0 (Metrics.Histogram.percentile h 50.0);
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Metrics.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 10.0 (Metrics.Histogram.sum h);
  check (Alcotest.float 1e-9) "mean" 2.5 (Metrics.Histogram.mean h);
  check (Alcotest.float 1e-9) "min exact" 1.0 (Metrics.Histogram.min h);
  check (Alcotest.float 1e-9) "max exact" 4.0 (Metrics.Histogram.max h);
  (* Negative and NaN samples clamp to 0 rather than corrupting state. *)
  Metrics.Histogram.observe h (-5.0);
  Metrics.Histogram.observe h Float.nan;
  check Alcotest.int "clamped count" 6 (Metrics.Histogram.count h);
  check (Alcotest.float 1e-9) "clamped min" 0.0 (Metrics.Histogram.min h);
  match Metrics.Histogram.percentile h 101.0 with
  | _ -> Alcotest.fail "expected Invalid_argument for p > 100"
  | exception Invalid_argument _ -> ()

(* An empty histogram has no meaningful statistics; every summary
   accessor is documented to return 0.0 rather than raise or produce
   NaN, so exporters can run against a freshly-reset registry. *)
let test_histogram_empty () =
  let h = Metrics.histogram "test.hist.empty" in
  check Alcotest.int "count" 0 (Metrics.Histogram.count h);
  check (Alcotest.float 0.0) "sum" 0.0 (Metrics.Histogram.sum h);
  check (Alcotest.float 0.0) "mean" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "min" 0.0 (Metrics.Histogram.min h);
  check (Alcotest.float 0.0) "max" 0.0 (Metrics.Histogram.max h);
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%g" p)
        0.0
        (Metrics.Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* Reset brings a used histogram back to the same empty behaviour. *)
  Metrics.Histogram.observe h 9.0;
  Metrics.reset_all ();
  check (Alcotest.float 0.0) "mean after reset" 0.0 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "p99 after reset" 0.0
    (Metrics.Histogram.percentile h 99.0)

(* Log-scale buckets bound the relative error; check the summary
   percentiles of known distributions within that bound. *)
let test_histogram_percentiles () =
  let h = Metrics.histogram "test.hist.uniform" in
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let within p expected tolerance =
    let v = Metrics.Histogram.percentile h p in
    if Float.abs (v -. expected) > tolerance *. expected then
      Alcotest.failf "p%.0f = %.1f, expected %.1f ± %.0f%%" p v expected
        (100.0 *. tolerance)
  in
  within 50.0 500.0 0.25;
  within 90.0 900.0 0.25;
  within 99.0 990.0 0.25;
  check (Alcotest.float 1e-9) "p0 is the min" 1.0 (Metrics.Histogram.percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 is the max" 1000.0
    (Metrics.Histogram.percentile h 100.0);
  (* A constant distribution: every percentile is (close to) the value,
     and clamping to observed min/max makes it exact. *)
  let k = Metrics.histogram "test.hist.constant" in
  for _ = 1 to 100 do
    Metrics.Histogram.observe k 7.0
  done;
  check (Alcotest.float 1e-9) "constant p50" 7.0 (Metrics.Histogram.percentile k 50.0);
  check (Alcotest.float 1e-9) "constant p99" 7.0 (Metrics.Histogram.percentile k 99.0)

(* ------------------------------- Spans ----------------------------- *)

let test_span_nesting () =
  let result =
    Span.with_ ~name:"test.span.outer" (fun () ->
        let inner = Span.with_ ~name:"test.span.inner" (fun () -> 17) in
        inner + 1)
  in
  check Alcotest.int "value threads through" 18 result;
  (match Metrics.find "test.span.outer" with
  | Some (Metrics.Histogram h) -> check Alcotest.int "outer recorded" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "outer span histogram missing");
  match Metrics.find "test.span.inner" with
  | Some (Metrics.Histogram h) -> check Alcotest.int "inner recorded" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "inner span histogram missing"

let test_span_records_on_raise () =
  (match Span.with_ ~name:"test.span.raising" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  match Metrics.find "test.span.raising" with
  | Some (Metrics.Histogram h) ->
      check Alcotest.int "elapsed recorded despite raise" 1 (Metrics.Histogram.count h)
  | _ -> Alcotest.fail "raising span histogram missing"

let test_span_timed_and_record () =
  let (v, ms) = Span.timed ~name:"test.span.timed" (fun () -> 5) in
  check Alcotest.int "timed value" 5 v;
  check Alcotest.bool "elapsed non-negative" true (ms >= 0.0);
  let h = Metrics.histogram "test.span.fast" in
  let v = Span.record h (fun () -> 9) in
  check Alcotest.int "record value" 9 v;
  check Alcotest.int "record observed" 1 (Metrics.Histogram.count h)

(* ------------------------------ Exporters -------------------------- *)

let test_text_exporter () =
  ignore (Metrics.counter "test.export.counter");
  Metrics.Counter.add (Metrics.counter "test.export.counter") 3;
  Metrics.Histogram.observe (Metrics.histogram "test.export.hist") 1.5;
  let text = Metrics.to_text () in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "counter row present" true (contains "test.export.counter" text);
  check Alcotest.bool "histogram row present" true (contains "test.export.hist" text);
  check Alcotest.bool "percentile columns present" true (contains "p99" text)

let test_json_round_trip () =
  Metrics.Counter.add (Metrics.counter "test.json.counter") 11;
  Metrics.Gauge.set (Metrics.gauge "test.json.gauge") 2.25;
  let h = Metrics.histogram "test.json.hist" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 8.0 ];
  let json = Metrics.to_json () in
  let round_tripped = Json.parse (Json.to_string json) in
  check Alcotest.bool "snapshot survives render/parse" true (Json.equal json round_tripped);
  (* And the decoded values are the ones we put in. *)
  (match Json.member "counters" round_tripped with
  | Some counters -> (
      match Json.member "test.json.counter" counters with
      | Some (Json.Num v) -> check (Alcotest.float 1e-9) "counter value" 11.0 v
      | _ -> Alcotest.fail "counter missing from JSON")
  | None -> Alcotest.fail "counters object missing");
  match Json.member "histograms" round_tripped with
  | Some hists -> (
      match Json.member "test.json.hist" hists with
      | Some hist -> (
          match Json.member "count" hist with
          | Some (Json.Num n) -> check (Alcotest.float 0.0) "histogram count" 3.0 n
          | _ -> Alcotest.fail "count missing")
      | None -> Alcotest.fail "histogram missing from JSON")
  | None -> Alcotest.fail "histograms object missing"

let test_json_parser_details () =
  let cases =
    [
      ({|{"a":1,"b":[true,false,null],"c":"x\ny"}|} : string);
      {|[1.5,-2,3e2,""]|};
      {|"plain"|};
      {|{}|};
      {|[]|};
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      let v' = Json.parse (Json.to_string v) in
      check Alcotest.bool (Printf.sprintf "round-trip %s" s) true (Json.equal v v'))
    cases;
  (match Json.parse "{\"a\":1} trailing" with
  | _ -> Alcotest.fail "expected trailing-garbage failure"
  | exception Json.Parse_error _ -> ());
  match Json.parse "{broken" with
  | _ -> Alcotest.fail "expected parse failure"
  | exception Json.Parse_error _ -> ()

(* Trace records travel as one JSON line each; the parser must survive
   the values traces actually carry — escaped query text, deeply nested
   child arrays, and large/precise floats — without loss. *)
let test_json_trace_payloads () =
  let round_trip label v =
    let v' = Json.parse (Json.to_string v) in
    check Alcotest.bool label true (Json.equal v v')
  in
  (* Escapes: quotes, backslashes, newlines, tabs and control bytes in
     span attributes (e.g. the raw request line). *)
  round_trip "escaped strings"
    (Json.Obj
       [
         ("line", Json.Str "QUERY lca(\"A\", \"B\")\\n\ttrailing");
         ("ctrl", Json.Str "\x01\x1f bell\x07");
         ("unicode-ish", Json.Str "caf\xc3\xa9");
       ]);
  (match Json.parse {|"aA\t\"b\\"|} with
  | Json.Str s -> check Alcotest.string "escape decoding" "aA\t\"b\\" s
  | _ -> Alcotest.fail "expected a string");
  (* All four \u digits must be hex; int_of_string alone lets '_' in. *)
  (match Json.parse {|"\u00_4"|} with
  | v -> Alcotest.failf "\\u00_4 decoded as %s" (Json.to_string v)
  | exception Json.Parse_error { pos; message } ->
      check Alcotest.(pair int string) "underscore in \\u escape" (1, {|bad \u escape "00_4"|})
        (pos, message));
  (* Nested arrays: a span tree several levels deep. *)
  let rec deep n =
    if n = 0 then Json.List [ Json.Num 0.0 ]
    else Json.List [ Json.Num (float_of_int n); deep (n - 1) ]
  in
  round_trip "nested arrays" (deep 24);
  (* Large and precise floats: timestamps in ms since epoch and
     sub-microsecond elapsed times. *)
  round_trip "large floats"
    (Json.Obj
       [
         ("started_at", Json.Num 1770000000.123456);
         ("elapsed_ms", Json.Num 0.000244140625);
         ("big", Json.Num 9.007199254740991e15);
         ("tiny", Json.Num 5e-324);
         ("negative", Json.Num (-1234567.875));
       ]);
  match Json.parse "1770000000.123456" with
  | Json.Num v ->
      check (Alcotest.float 1e-6) "float precision survives" 1770000000.123456 v
  | _ -> Alcotest.fail "expected a number"

(* The byte contract of [Json.to_string], spelled out with Printf: the
   oracle the encoder's direct digit and run writers are checked
   against. *)
let oracle_to_string v =
  let buf = Buffer.create 64 in
  let number x =
    if Float.is_nan x || Float.abs x = Float.infinity then "null"
    else if Float.is_integer x && Float.abs x <= 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x
  in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let sep i = if i > 0 then Buffer.add_char buf ',' in
  let rec go = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Num x -> Buffer.add_string buf (number x)
    | Json.Str s -> str s
    | Json.List items ->
        Buffer.add_char buf '[';
        List.iteri (fun i v -> sep i; go v) items;
        Buffer.add_char buf ']'
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri (fun i (k, v) -> sep i; str k; Buffer.add_char buf ':'; go v) fields;
        Buffer.add_char buf '}'
    | Json.Raw text -> Buffer.add_string buf text
  in
  go v;
  Buffer.contents buf

let edge_floats =
  [
    0.0; -0.0; 1e15; -1e15; 1e15 +. 1.0; 1e15 +. 2.0; -.(1e15 +. 2.0); 1e15 -. 1.0;
    0x1p53; -0x1p53; 5e-324; max_float; -.max_float; min_float; 0.5; -0.5; 1e-7;
    Float.nan; Float.infinity; Float.neg_infinity;
  ]

(* Integers of 1 to 17 digits (15 is the decoder's exact-int limit),
   fractions, raw bit patterns and the named edges. *)
let gen_float ~finite =
  let open QCheck.Gen in
  let rec pow10 d = if d = 0 then 1 else 10 * pow10 (d - 1) in
  let digits =
    int_range 1 17 >>= fun d ->
    let m = pow10 d - 1 in
    map float_of_int (int_range (-m) m)
  in
  let g =
    frequency
      [
        (3, map Int64.float_of_bits int64);
        (2, oneofl edge_floats);
        (3, digits);
        (2, map2 (fun n d -> float_of_int n /. float_of_int d) int (int_range 1 1000));
      ]
  in
  if finite then map (fun x -> if Float.is_finite x then x else 0.25) g else g

(* Byte strings heavy in the bytes the escaper and the run copier treat
   specially: quotes, backslashes, control bytes and bytes >= 0x80. *)
let gen_bytes =
  let open QCheck.Gen in
  string_size
    ~gen:
      (frequency
         [
           (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\x1f'; '\x7f'; '\x80'; '\xff'; '/' ]);
           (3, char);
           (4, printable);
         ])
    (int_range 0 24)

let gen_json ~finite =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (4, map (fun x -> Json.Num x) (gen_float ~finite));
        (3, map (fun s -> Json.Str s) gen_bytes);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 5) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l) (list_size (int_range 0 5) (pair gen_bytes (self (n / 3))))
               );
             ])

let run_qcheck ~count ~name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop) |> fun (_, _, f) -> f ()

let json_arb ~finite = QCheck.make ~print:oracle_to_string (gen_json ~finite)

let test_json_encoder_bytes () =
  List.iter
    (fun x ->
      check Alcotest.string
        (Printf.sprintf "edge %h" x)
        (oracle_to_string (Json.Num x))
        (Json.to_string (Json.Num x)))
    edge_floats;
  check Alcotest.string "negative zero" "-0" (Json.to_string (Json.Num (-0.0)));
  run_qcheck ~count:2000 ~name:"to_string matches the Printf oracle" (json_arb ~finite:false)
    (fun v -> String.equal (Json.to_string v) (oracle_to_string v))

(* [Raw] text goes out verbatim wherever it sits; [render] hands back
   copies of what it wrote into the domain's buffer: a later, smaller or
   failed call never shows in an earlier result or in a later one. *)
let test_json_raw_and_render () =
  let items =
    Json.render (fun buf -> Json.to_buffer buf (Json.List [ Json.Num 1.5; Json.Str "a\"b" ]))
  in
  check Alcotest.string "raw in a list" "[[1.5,\"a\\\"b\"],null]"
    (Json.to_string (Json.List [ Json.Raw items; Json.Null ]));
  check Alcotest.string "raw in an object" "{\"k\":[1.5,\"a\\\"b\"]}"
    (Json.to_string (Json.Obj [ ("k", Json.Raw items) ]));
  check Alcotest.bool "raw has no fields" true (Json.member "k" (Json.Raw "{\"k\":1}") = None);
  let large = Json.render (fun buf -> Buffer.add_string buf (String.make (3 lsl 20) 'x')) in
  let small = Json.render (fun buf -> Buffer.add_string buf "ab") in
  check Alcotest.string "small after large" "ab" small;
  check Alcotest.bool "large kept whole" true (large = String.make (3 lsl 20) 'x');
  (match Json.render (fun buf -> Buffer.add_string buf "lost"; failwith "boom") with
  | _ -> Alcotest.fail "render swallowed an exception"
  | exception Failure _ -> ());
  check Alcotest.string "after a failure" "ok"
    (Json.render (fun buf -> Buffer.add_string buf "ok"));
  check Alcotest.string "earlier results unchanged" "ab" small

let test_json_decoder_round_trip () =
  run_qcheck ~count:2000 ~name:"parse inverts to_string" (json_arb ~finite:true) (fun v ->
      let s = Json.to_string v in
      let v' = Json.parse s in
      Json.equal v v' && String.equal (Json.to_string v') s);
  (* Bare digit runs, leading zeros included, decode exactly as
     float_of_string reads them, sign of zero too. *)
  let digit_runs =
    QCheck.make ~print:Fun.id
      QCheck.Gen.(
        map2
          (fun neg ds -> (if neg then "-" else "") ^ ds)
          bool
          (string_size ~gen:(char_range '0' '9') (int_range 1 18)))
  in
  run_qcheck ~count:2000 ~name:"digit runs decode as float_of_string" digit_runs (fun s ->
      match Json.parse s with
      | Json.Num x -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (float_of_string s))
      | _ -> false);
  match Json.parse "-0" with
  | Json.Num x -> check Alcotest.bool "-0 keeps its sign" true (Float.sign_bit x)
  | _ -> Alcotest.fail "expected a number"

(* Every malformed input fails at a pinned byte offset with a pinned
   message. *)
let test_json_malformed_inputs () =
  let cases =
    [
      ("", 0, "unexpected end of input");
      ("   ", 3, "unexpected end of input");
      ("[", 1, "unexpected end of input");
      ("[1", 2, "expected ']', found end of input");
      ("[1,2", 4, "expected ']', found end of input");
      ("[1,", 3, "unexpected end of input");
      ("[1,]", 3, "unexpected character ']'");
      ("[1 2]", 3, "expected ']', found '2'");
      ("[true false]", 6, "expected ']', found 'f'");
      ("{", 1, "expected '\"', found end of input");
      ({|{"a"|}, 4, "expected ':', found end of input");
      ({|{"a":|}, 5, "unexpected end of input");
      ({|{"a":1|}, 6, "expected '}', found end of input");
      ({|{"a":1,}|}, 7, "expected '\"', found '}'");
      ({|{"a" 1}|}, 5, "expected ':', found '1'");
      ("{a:1}", 1, "expected '\"', found 'a'");
      ({|"abc|}, 4, "unterminated string");
      ({|"a\"|}, 4, "unterminated string");
      ({|"ab\|}, 3, "unterminated escape");
      ({|"\u12"|}, 1, "truncated \\u escape");
      ({|"\u004|}, 1, "truncated \\u escape");
      ({|"\u12zz"|}, 1, "bad \\u escape \"12zz\"");
      ({|"\x"|}, 1, "unknown escape \\'x'");
      ("-", 0, "invalid number \"-\"");
      ("1e", 0, "invalid number \"1e\"");
      ("1.2.3", 0, "invalid number \"1.2.3\"");
      ("--1", 0, "invalid number \"--1\"");
      ("1e5e", 0, "invalid number \"1e5e\"");
      ("[-]", 1, "invalid number \"-\"");
      ("nul", 0, "invalid literal (expected null)");
      ("tru", 0, "invalid literal (expected true)");
      ("falsy", 0, "invalid literal (expected false)");
      ("nulll", 4, "trailing garbage");
      ({|{"a":1} trailing|}, 8, "trailing garbage");
      ("1 2", 2, "trailing garbage");
      ("123abc", 3, "trailing garbage");
      ("-0x10", 2, "trailing garbage");
      ("+1", 0, "unexpected character '+'");
      (".5", 0, "unexpected character '.'");
    ]
  in
  List.iter
    (fun (input, pos, message) ->
      match Json.parse input with
      | v -> Alcotest.failf "%S parsed as %s" input (Json.to_string v)
      | exception Json.Parse_error e ->
          check
            Alcotest.(pair int string)
            (Printf.sprintf "error for %S" input)
            (pos, message) (e.pos, e.message))
    cases

(* The Prometheus exporter: every metric appears under a crimson_
   prefix with a TYPE line, and every sample line is "name value" or
   "name{quantile=...} value" with a parseable float — the contract the
   smoke test's line-oriented parser enforces end to end. *)
let test_prometheus_exporter () =
  Metrics.Counter.add (Metrics.counter "test.prom.counter") 7;
  Metrics.Gauge.set (Metrics.gauge "test.prom-gauge") 2.5;
  let h = Metrics.histogram "test.prom.hist" in
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 4.0 ];
  let text = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  check Alcotest.bool "non-empty" true (lines <> []);
  let sample_lines = List.filter (fun l -> not (String.length l > 0 && l.[0] = '#')) lines in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "sample line without value: %s" line
      | Some i -> (
          let name = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          check Alcotest.bool
            (Printf.sprintf "crimson_ prefix: %s" line)
            true
            (String.length name > 8 && String.sub name 0 8 = "crimson_");
          match float_of_string_opt value with
          | Some _ -> ()
          | None -> Alcotest.failf "unparseable value in %s" line))
    sample_lines;
  let has l = List.mem l lines in
  check Alcotest.bool "counter TYPE" true (has "# TYPE crimson_test_prom_counter counter");
  check Alcotest.bool "counter sample" true (has "crimson_test_prom_counter 7");
  (* Dots and dashes both fold to underscores. *)
  check Alcotest.bool "gauge name mangled" true (has "crimson_test_prom_gauge 2.5");
  check Alcotest.bool "histogram TYPE" true
    (has "# TYPE crimson_test_prom_hist histogram");
  check Alcotest.bool "histogram count" true (has "crimson_test_prom_hist_count 3");
  check Alcotest.bool "histogram sum" true (has "crimson_test_prom_hist_sum 7");
  check Alcotest.bool "+Inf bucket" true
    (has {|crimson_test_prom_hist_bucket{le="+Inf"} 3|});
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "finite le bucket present" true
    (List.exists (contains {|crimson_test_prom_hist_bucket{le="|}) lines);
  check Alcotest.bool "summary family TYPE" true
    (has "# TYPE crimson_test_prom_hist_summary summary");
  check Alcotest.bool "quantile label present" true
    (List.exists (contains {|crimson_test_prom_hist_summary{quantile="0.99"}|}) lines)

(* Cumulative bucket exposition: le bounds ascend, counts are cumulative
   and monotone, and the last finite bucket's count equals the total. *)
let test_prometheus_buckets () =
  let h = Metrics.histogram "test.prom.buckets" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 0.5; 5.0; 50.0; 50.0; 50.0 ];
  let buckets = Metrics.Histogram.cumulative_buckets h in
  check Alcotest.int "three non-empty buckets" 3 (List.length buckets);
  let les = List.map fst buckets and cums = List.map snd buckets in
  check (Alcotest.list Alcotest.int) "cumulative counts" [ 2; 3; 6 ] cums;
  check Alcotest.bool "ascending bounds" true (List.sort compare les = les);
  List.iter2
    (fun le cum ->
      let below =
        List.length (List.filter (fun v -> v <= le) [ 0.5; 0.5; 5.0; 50.0; 50.0; 50.0 ])
      in
      check Alcotest.int (Printf.sprintf "cum at le=%g" le) below cum)
    les cums;
  check (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) Alcotest.int))
    "empty histogram has no buckets" []
    (Metrics.Histogram.cumulative_buckets (Metrics.histogram "test.prom.empty"))

(* Name mangling and HELP escaping. *)
let test_prometheus_escaping () =
  check Alcotest.string "name mangling"
    "crimson_storage_pager_read_ms"
    (Metrics.prometheus_name "storage.pager/read-ms");
  check Alcotest.string "help escaping" {|a\\b\nc "quoted"|}
    (Metrics.prometheus_escape_help "a\\b\nc \"quoted\"");
  Metrics.Counter.incr (Metrics.counter "test.prom.helped");
  Metrics.set_help "test.prom.helped" "line one\nline two \\ done";
  let text = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' text in
  check Alcotest.bool "HELP line escaped" true
    (List.mem {|# HELP crimson_test_prom_helped line one\nline two \\ done|} lines);
  (* The embedded newline must not have split the HELP across lines:
     nothing in the output starts with the unescaped second half. *)
  check Alcotest.bool "no raw newline leaked" true
    (not (List.exists (fun l -> l = "line two \\ done") lines))

let test_reset_all () =
  let c = Metrics.counter "test.reset.counter" in
  Metrics.Counter.add c 5;
  let h = Metrics.histogram "test.reset.hist" in
  Metrics.Histogram.observe h 3.0;
  Metrics.reset_all ();
  check Alcotest.int "counter zeroed" 0 (Metrics.Counter.value c);
  check Alcotest.int "histogram emptied" 0 (Metrics.Histogram.count h);
  check Alcotest.bool "registration survives" true
    (Metrics.find "test.reset.counter" <> None)

(* ------------------------------ Fleet ------------------------------ *)

let test_trace_merge_records () =
  let rec_at ~trace t =
    {
      Trace.id = trace;
      started_at = t;
      root =
        {
          Trace.name = "r";
          depth = 0;
          start_ms = 0.0;
          elapsed_ms = 1.0;
          attrs = [];
          children = [];
        };
      meta = [];
    }
  in
  let w1 = [ rec_at ~trace:5 30.0; rec_at ~trace:3 10.0 ] in
  let w2 = [ rec_at ~trace:4 20.0 ] in
  let merged = Trace.merge_records [ w1; w2 ] in
  check
    (Alcotest.list (Alcotest.float 0.0))
    "newest first across rings" [ 30.0; 20.0; 10.0 ]
    (List.map (fun r -> r.Trace.started_at) merged);
  check Alcotest.int "n caps" 2 (List.length (Trace.merge_records ~n:2 [ w1; w2 ]));
  (* Equal timestamps break ties by trace id, descending — the order is
     total, so repeated merges never flap. *)
  let tie = Trace.merge_records [ [ rec_at ~trace:1 5.0 ]; [ rec_at ~trace:2 5.0 ] ] in
  check
    (Alcotest.list Alcotest.int)
    "tie-break by id" [ 2; 1 ]
    (List.map (fun r -> r.Trace.id) tie)

(* Every domain's slowlog ring is readable from any domain, in place: a
   spawned domain records a slow trace and then blocks on a mutex the
   main domain holds, so it cannot hand anything over; the main
   domain's slowlog already lists that trace, merged newest first with
   its own entries. *)
let test_slowlog_across_domains () =
  Trace.set_slowlog_ms (Some 0.0);
  Trace.slowlog_reset ();
  let traced name = Trace.with_ ~name (fun () -> ()) in
  traced "test.main.before";
  let gate = Mutex.create () in
  Mutex.lock gate;
  let recorded = Atomic.make false in
  let peer =
    Domain.spawn (fun () ->
        traced "test.peer";
        Atomic.set recorded true;
        Mutex.lock gate;
        Mutex.unlock gate)
  in
  while not (Atomic.get recorded) do
    Domain.cpu_relax ()
  done;
  traced "test.main.after";
  let names = List.map (fun r -> r.Trace.root.Trace.name) (Trace.slowlog ()) in
  Mutex.unlock gate;
  Domain.join peer;
  Trace.set_slowlog_ms None;
  Trace.slowlog_reset ();
  check
    (Alcotest.list Alcotest.string)
    "both domains, newest first"
    [ "test.main.after"; "test.peer"; "test.main.before" ]
    names

(* ------------------------------ Events ----------------------------- *)

let test_events_journal () =
  let dir = Filename.temp_file "crimson_events" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "events.jsonl" in
  Events.set_journal (Some path);
  Events.emit "unit_test" ~fields:[ ("n", Json.Num 1.0) ];
  Events.emit "unit_test" ~fields:[ ("n", Json.Num 2.0) ];
  Events.flush ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check Alcotest.int "two lines" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Json.Obj fields ->
          check Alcotest.bool "has ts" true (List.mem_assoc "ts" fields);
          check Alcotest.bool "kind" true
            (List.assoc_opt "event" fields = Some (Json.Str "unit_test"));
          check Alcotest.bool "field" true
            (List.assoc_opt "n" fields = Some (Json.Num (float_of_int (i + 1))))
      | _ -> Alcotest.fail "event line is not an object")
    lines;
  (* Rotation: shrink the cap so the next event rotates to .1. *)
  Events.set_journal ~max_bytes:1 (Some path);
  Events.emit "rotated";
  Events.flush ();
  check Alcotest.bool "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  Events.set_journal None;
  check Alcotest.bool "uninstalled" true (not (Events.installed ()));
  (* Without a journal, emit drops (and counts) instead of failing. *)
  let dropped = Metrics.counter_value "obs.events.dropped" in
  Events.emit "dropped_event";
  check Alcotest.int "dropped counted" (dropped + 1)
    (Metrics.counter_value "obs.events.dropped");
  Sys.remove path;
  Sys.remove (path ^ ".1");
  Unix.rmdir dir

(* ------------------------------ Profile ----------------------------- *)

(* A profile's allocation readings belong to the profiled domain: a
   sibling domain allocating on the major heap meanwhile must not show
   up in them. The profiled domain empties its minor heap first, so the
   sibling's collections have none of its objects to promote. *)
let test_profile_major_words_domain_local () =
  let stop = Atomic.make false in
  let allocator =
    Domain.spawn (fun () ->
        let keep = ref [||] in
        while not (Atomic.get stop) do
          keep := Array.make 100_000 0
        done;
        Array.length !keep)
  in
  Gc.minor ();
  let (), report = Crimson_obs.Profile.profile (fun () -> Unix.sleepf 0.2) in
  Atomic.set stop true;
  ignore (Domain.join allocator);
  let major = report.Crimson_obs.Profile.total.Crimson_obs.Profile.major_words in
  check Alcotest.bool (Printf.sprintf "major words %.0f < 1000" major) true (major < 1000.0)

let () =
  Alcotest.run "crimson_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "kind collision" `Quick test_kind_collision;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "timed and record" `Quick test_span_timed_and_record;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "text exporter" `Quick test_text_exporter;
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "json parser details" `Quick test_json_parser_details;
          Alcotest.test_case "json trace payloads" `Quick test_json_trace_payloads;
          Alcotest.test_case "json encoder bytes" `Quick test_json_encoder_bytes;
          Alcotest.test_case "json decoder round-trip" `Quick test_json_decoder_round_trip;
          Alcotest.test_case "json raw text and render" `Quick test_json_raw_and_render;
          Alcotest.test_case "json malformed inputs" `Quick test_json_malformed_inputs;
          Alcotest.test_case "prometheus exporter" `Quick test_prometheus_exporter;
          Alcotest.test_case "prometheus buckets" `Quick test_prometheus_buckets;
          Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
          Alcotest.test_case "reset all" `Quick test_reset_all;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "trace ring interleave" `Quick
            test_trace_merge_records;
          Alcotest.test_case "slowlog across domains" `Quick
            test_slowlog_across_domains;
        ] );
      ( "events",
        [ Alcotest.test_case "journal emit + rotation" `Quick test_events_journal ] );
      ( "profile",
        [
          Alcotest.test_case "major words stay per domain" `Quick
            test_profile_major_words_domain_local;
        ] );
    ]
