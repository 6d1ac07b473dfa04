(* Unit and property tests for crimson_util. *)

module Prng = Crimson_util.Prng
module Vec = Crimson_util.Vec
module Codec = Crimson_util.Codec
module Stats = Crimson_util.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------- Prng ------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Prng.int64 a) (Prng.int64 b) then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 5)

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  let va = Prng.int64 a in
  let vb = Prng.int64 b in
  check Alcotest.int64 "copy continues identically" va vb

let test_prng_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_rejects_nonpositive () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_uniformish () =
  let g = Prng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    counts

let test_prng_float_range () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_prng_exponential_mean () =
  let g = Prng.create 13 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential g ~rate:2.0
  done;
  let mean = !total /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "mean %f far from 0.5" mean

let test_prng_sample_without_replacement () =
  let g = Prng.create 17 in
  for _ = 1 to 100 do
    let k = Prng.int g 20 and extra = Prng.int g 30 in
    let n = k + extra in
    if n > 0 then begin
      let s = Prng.sample_without_replacement g ~k ~n in
      check Alcotest.int "size" k (Array.length s);
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          if v < 0 || v >= n then Alcotest.failf "out of range %d" v;
          if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
          Hashtbl.add seen v ())
        s
    end
  done

let test_prng_sample_full () =
  let g = Prng.create 19 in
  let s = Prng.sample_without_replacement g ~k:10 ~n:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 10 Fun.id) sorted

let test_prng_sample_invalid () =
  let g = Prng.create 19 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Prng.sample_without_replacement: need 0 <= k <= n") (fun () ->
      ignore (Prng.sample_without_replacement g ~k:5 ~n:3))

let test_prng_discrete () =
  let g = Prng.create 23 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Prng.discrete g [| 1.0; 2.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  if Float.abs (frac 0 -. (1.0 /. 6.0)) > 0.02 then Alcotest.fail "weight 1 off";
  if Float.abs (frac 2 -. 0.5) > 0.02 then Alcotest.fail "weight 3 off"

let test_prng_discrete_invalid () =
  let g = Prng.create 23 in
  Alcotest.check_raises "all zero" (Invalid_argument "Prng.discrete: all weights zero")
    (fun () -> ignore (Prng.discrete g [| 0.0; 0.0 |]))

let test_prng_shuffle_permutes () =
  let g = Prng.create 29 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------- Vec ------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" (i * i) (Vec.get v i)
  done

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "pop" 2 (Vec.pop v);
  check Alcotest.int "length" 1 (Vec.length v);
  check Alcotest.int "last" 1 (Vec.last v)

let test_vec_empty_errors () =
  let v : int Vec.t = Vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v));
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 0 out of bounds [0,0)")
    (fun () -> ignore (Vec.get v 0))

let test_vec_truncate () =
  let v = Vec.of_array [| 1; 2; 3; 4; 5 |] in
  Vec.truncate v 2;
  check (Alcotest.list Alcotest.int) "truncated" [ 1; 2 ] (Vec.to_list v);
  Vec.truncate v 10;
  check Alcotest.int "no-op" 2 (Vec.length v)

let test_vec_iterators () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check Alcotest.int "fold" 6 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "iteri" [ (0, 1); (1, 2); (2, 3) ] (List.rev !acc)

let vec_model =
  QCheck.Test.make ~name:"vec behaves like list" ~count:500
    QCheck.(list (int_range 0 2))
  @@ fun ops ->
  let v = Vec.create () in
  let model = ref [] in
  List.iteri
    (fun i op ->
      match op with
      | 0 ->
          Vec.push v i;
          model := !model @ [ i ]
      | 1 ->
          if !model <> [] then begin
            let popped = Vec.pop v in
            let expected = List.nth !model (List.length !model - 1) in
            if popped <> expected then QCheck.Test.fail_report "pop mismatch";
            model := List.filteri (fun j _ -> j < List.length !model - 1) !model
          end
      | _ ->
          if Vec.length v <> List.length !model then
            QCheck.Test.fail_report "length mismatch")
    ops;
  Vec.to_list v = !model

(* ------------------------------ Codec ------------------------------ *)

let test_codec_roundtrip_ints () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.u16 w 40_000;
  Codec.Writer.u32 w 3_000_000_000;
  Codec.Writer.i64 w (-12345678901234L);
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  check Alcotest.int "u8" 200 (Codec.Reader.u8 r);
  check Alcotest.int "u16" 40_000 (Codec.Reader.u16 r);
  check Alcotest.int "u32" 3_000_000_000 (Codec.Reader.u32 r);
  check Alcotest.int64 "i64" (-12345678901234L) (Codec.Reader.i64 r)

let test_codec_varint_edge () =
  List.iter
    (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w v;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Codec.Reader.varint r))
    [ 0; 1; 127; 128; 16383; 16384; 1 lsl 40; max_int ]

let test_codec_zigzag () =
  List.iter
    (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.zigzag w v;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      check Alcotest.int (Printf.sprintf "zigzag %d" v) v (Codec.Reader.zigzag r))
    [ 0; -1; 1; -64; 64; min_int + 1; max_int ]

let test_codec_string () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello";
  Codec.Writer.string w "";
  Codec.Writer.float64 w 3.14159;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  check Alcotest.string "string" "hello" (Codec.Reader.string r);
  check Alcotest.string "empty" "" (Codec.Reader.string r);
  check (Alcotest.float 1e-12) "float" 3.14159 (Codec.Reader.float64 r)

let test_codec_truncated () =
  let r = Codec.Reader.create "\xff" in
  (match Codec.Reader.varint r with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  let r2 = Codec.Reader.create "ab" in
  match Codec.Reader.u32 r2 with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_codec_fixed_offsets () =
  let b = Bytes.make 16 '\x00' in
  Codec.set_u16 b 0 0xBEEF;
  Codec.set_u32 b 2 0xDEADBEE;
  Codec.set_i64 b 6 123456789L;
  check Alcotest.int "u16" 0xBEEF (Codec.get_u16 b 0);
  check Alcotest.int "u32" 0xDEADBEE (Codec.get_u32 b 2);
  check Alcotest.int64 "i64" 123456789L (Codec.get_i64 b 6)

let codec_varint_roundtrip =
  QCheck.Test.make ~name:"varint round-trips" ~count:1000 QCheck.(int_bound max_int)
  @@ fun v ->
  let w = Codec.Writer.create () in
  Codec.Writer.varint w v;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Codec.Reader.varint r = v

(* ------------------------------ Stats ------------------------------ *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min xs);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max xs);
  check (Alcotest.float 1e-9) "variance" 2.5 (Stats.variance xs)

let test_stats_percentile_interpolation () =
  let xs = [| 10.0; 20.0 |] in
  check (Alcotest.float 1e-9) "p25" 12.5 (Stats.percentile xs 25.0);
  check (Alcotest.float 1e-9) "p0" 10.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 20.0 (Stats.percentile xs 100.0)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

(* -------------------------- Table printer -------------------------- *)

let test_table_printer () =
  let t =
    Crimson_util.Table_printer.create
      ~columns:[ ("name", Crimson_util.Table_printer.Left); ("n", Crimson_util.Table_printer.Right) ]
  in
  Crimson_util.Table_printer.add_row t [ "alpha"; "1" ];
  Crimson_util.Table_printer.add_row t [ "b"; "100" ];
  let s = Crimson_util.Table_printer.render t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "contains row" true (contains "alpha" s);
  check Alcotest.bool "contains header" true (contains "name" s);
  (* Rows must align: every line has the same length. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  match widths with
  | [] -> Alcotest.fail "no output"
  | w :: rest -> List.iter (fun w' -> check Alcotest.int "aligned" w w') rest

let test_table_printer_arity () =
  let t =
    Crimson_util.Table_printer.create
      ~columns:[ ("a", Crimson_util.Table_printer.Left) ]
  in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table_printer.add_row: 2 cells for 1 columns") (fun () ->
      Crimson_util.Table_printer.add_row t [ "x"; "y" ])

let () =
  Alcotest.run "crimson_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "int roughly uniform" `Quick test_prng_int_uniformish;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "sample without replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "sample k=n is a permutation" `Quick test_prng_sample_full;
          Alcotest.test_case "sample invalid args" `Quick test_prng_sample_invalid;
          Alcotest.test_case "discrete distribution" `Quick test_prng_discrete;
          Alcotest.test_case "discrete invalid" `Quick test_prng_discrete_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop/last" `Quick test_vec_pop;
          Alcotest.test_case "empty errors" `Quick test_vec_empty_errors;
          Alcotest.test_case "truncate" `Quick test_vec_truncate;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          qtest vec_model;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixed ints" `Quick test_codec_roundtrip_ints;
          Alcotest.test_case "varint edges" `Quick test_codec_varint_edge;
          Alcotest.test_case "zigzag" `Quick test_codec_zigzag;
          Alcotest.test_case "strings and floats" `Quick test_codec_string;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
          Alcotest.test_case "fixed offsets" `Quick test_codec_fixed_offsets;
          qtest codec_varint_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolation;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "table_printer",
        [
          Alcotest.test_case "render aligns" `Quick test_table_printer;
          Alcotest.test_case "row arity" `Quick test_table_printer_arity;
        ] );
    ]
