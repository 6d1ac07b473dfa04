type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = mix64 s }

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling on 30 bits to avoid modulo bias. *)
    let mask = 1 lsl 30 in
    let limit = mask - (mask mod bound) in
    let rec draw () =
      let v = bits30 t in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end
  else
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    v mod bound

let float t x =
  (* 53 uniform bits mapped to [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (v *. 0x1p-53)

let bool t = Int64.compare (Int64.logand (int64 t) 1L) 0L <> 0

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 || k > n then
    invalid_arg "Prng.sample_without_replacement: need 0 <= k <= n";
  if 2 * k >= n then begin
    (* Dense case: partial Fisher-Yates over the full index range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection of repeats keeps memory at O(k). Up to 8
       picks, a scan of the earlier ones is cheaper than a hash set; both
       reject the same draws. *)
    let out = Array.make k 0 in
    let filled = ref 0 in
    if k <= 8 then
      while !filled < k do
        let v = int t n in
        let i = ref 0 in
        while !i < !filled && out.(!i) <> v do
          incr i
        done;
        if !i = !filled then begin
          out.(!filled) <- v;
          incr filled
        end
      done
    else begin
      let seen = Hashtbl.create (2 * k) in
      while !filled < k do
        let v = int t n in
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out.(!filled) <- v;
          incr filled
        end
      done
    end;
    out
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let discrete t weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Prng.discrete: empty weights";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if weights.(i) < 0.0 then invalid_arg "Prng.discrete: negative weight";
    total := !total +. weights.(i)
  done;
  if !total <= 0.0 then invalid_arg "Prng.discrete: all weights zero";
  let x = float t !total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
