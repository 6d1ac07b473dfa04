let nonempty xs op =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty" op)

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  nonempty xs "mean";
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let percentile xs p =
  nonempty xs "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let median xs = percentile xs 50.0

let min xs =
  nonempty xs "min";
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  nonempty xs "max";
  Array.fold_left Stdlib.max xs.(0) xs

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

let summarize xs =
  nonempty xs "summarize";
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    p50 = median xs;
    p95 = percentile xs 95.0;
    max = max xs;
  }
