module Prng = Crimson_util.Prng

exception Invalid_sample of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_sample s)) fmt

let uniform tree ~rng ~k =
  let n = Stored_tree.leaf_count tree in
  if k <= 0 then invalid "sample size %d must be positive" k;
  if k > n then invalid "sample size %d exceeds leaf count %d" k n;
  let ords = Prng.sample_without_replacement rng ~k ~n in
  Array.to_list (Array.map (fun ord -> Stored_tree.leaf_by_ordinal tree ord) ords)

(* The cut time is checked before the handle's frontier is read. *)
let frontier_views tree ~time =
  if not (Float.is_finite time) then invalid "time %g must be finite" time;
  if time < 0.0 then invalid "time %g must be non-negative" time;
  Stored_tree.frontier tree ~time

let frontier_at tree ~time =
  List.map (fun v -> v.Node_view.node) (frontier_views tree ~time)

let with_time tree ~rng ~k ~time =
  let n = Stored_tree.leaf_count tree in
  if k <= 0 then invalid "sample size %d must be positive" k;
  if k > n then invalid "sample size %d exceeds leaf count %d" k n;
  let frontier = frontier_views tree ~time in
  if frontier = [] then
    invalid "no species lies deeper than evolutionary time %g" time;
  let intervals =
    List.map (fun v -> (v.Node_view.leaf_lo, v.Node_view.leaf_hi)) frontier
  in
  let capacity = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 intervals in
  if k > capacity then
    invalid "sample size %d exceeds the %d species below the time-%g frontier" k
      capacity time;
  (* Even quotas, the paper's k/|F| rule; remainders go to random
     subtrees, and quota overflow (subtree smaller than its quota) spills
     over round-robin. *)
  let m = List.length frontier in
  let sizes = Array.of_list (List.map (fun (lo, hi) -> hi - lo) intervals) in
  let quotas = Array.make m (k / m) in
  (* Spread the remainder over distinct random subtrees. *)
  let rem = k mod m in
  let order = Prng.sample_without_replacement rng ~k:m ~n:m in
  for i = 0 to rem - 1 do
    quotas.(order.(i)) <- quotas.(order.(i)) + 1
  done;
  (* Spill: cap quotas at subtree sizes, pushing excess to others. *)
  let excess = ref 0 in
  for i = 0 to m - 1 do
    if quotas.(i) > sizes.(i) then begin
      excess := !excess + (quotas.(i) - sizes.(i));
      quotas.(i) <- sizes.(i)
    end
  done;
  let guard = ref 0 in
  while !excess > 0 do
    incr guard;
    if !guard > m + k then invalid "internal quota distribution failed";
    for i = 0 to m - 1 do
      if !excess > 0 && quotas.(i) < sizes.(i) then begin
        quotas.(i) <- quotas.(i) + 1;
        decr excess
      end
    done
  done;
  let samples = ref [] in
  List.iteri
    (fun i (lo, hi) ->
      let size = hi - lo in
      let quota = quotas.(i) in
      if quota > 0 then begin
        let picks = Prng.sample_without_replacement rng ~k:quota ~n:size in
        Array.iter
          (fun p -> samples := Stored_tree.leaf_by_ordinal tree (lo + p) :: !samples)
          picks
      end)
    intervals;
  List.rev !samples

(* ---------------------------- Telemetry ---------------------------- *)

module Span = Crimson_obs.Span
module Json = Crimson_obs.Json

let fattr key v = Span.attr key (Json.Num (float_of_int v))

let uniform tree ~rng ~k =
  Span.with_ ~name:"core.sampling.uniform" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "k" k;
      let sampled = uniform tree ~rng ~k in
      fattr "sampled" (List.length sampled);
      sampled)

let frontier_at tree ~time =
  Span.with_ ~name:"core.sampling.frontier" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      Span.attr "time" (Json.Num time);
      let frontier = frontier_at tree ~time in
      fattr "frontier" (List.length frontier);
      frontier)

let with_time tree ~rng ~k ~time =
  Span.with_ ~name:"core.sampling.with_time" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "k" k;
      Span.attr "time" (Json.Num time);
      with_time tree ~rng ~k ~time)
