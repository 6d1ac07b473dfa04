module Tree = Crimson_tree.Tree

(* Structure mirrors Nj.reconstruct, including its slot-indexed n×n
   working matrices; the difference is the reduction step, which
   maintains a variance matrix V alongside D and picks the mixing weight
   lambda minimising the reduced variance (Gascuel 1997, eq. 9–10). *)
let reconstruct (dm : Distance.t) =
  let n = Distance.size dm in
  if n < 2 then invalid_arg "Bionj.reconstruct: need at least 2 taxa";
  if n <= 3 then Nj.reconstruct dm
  else begin
    let total = (2 * n) - 2 in
    let children = Array.make total [] in
    let next = ref n in
    let active = Array.init n Fun.id in
    let count = ref n in
    let dist = Array.make (n * n) 0.0 in
    let var = Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = Distance.get dm i j in
        dist.((i * n) + j) <- d;
        dist.((j * n) + i) <- d;
        (* Initial variances proportional to the distances. *)
        var.((i * n) + j) <- d;
        var.((j * n) + i) <- d
      done
    done;
    while !count > 3 do
      let m = !count in
      let r = Array.make m 0.0 in
      for i = 0 to m - 1 do
        let row = i * n in
        for j = 0 to m - 1 do
          if i <> j then r.(i) <- r.(i) +. dist.(row + j)
        done
      done;
      let best_i = ref 0 and best_j = ref 1 and best_q = ref infinity in
      let scale = float_of_int (m - 2) in
      for i = 0 to m - 1 do
        let row = i * n in
        for j = i + 1 to m - 1 do
          let q = (scale *. dist.(row + j)) -. r.(i) -. r.(j) in
          if q < !best_q then begin
            best_q := q;
            best_i := i;
            best_j := j
          end
        done
      done;
      let i = !best_i and j = !best_j in
      let a = active.(i) and b = active.(j) in
      let dij = dist.((i * n) + j) in
      let la = (dij /. 2.0) +. ((r.(i) -. r.(j)) /. (2.0 *. float_of_int (m - 2))) in
      let la = Float.max 0.0 (Float.min dij la) in
      let lb = Float.max 0.0 (dij -. la) in
      let v = !next in
      incr next;
      children.(v) <- [ (a, la); (b, lb) ];
      (* BIONJ mixing weight: lambda = 1/2 + Σ_c (V(b,c) - V(a,c)) /
         (2 (m-2) V(a,b)), clamped to [0,1]. *)
      let vab = var.((i * n) + j) in
      let lambda =
        if vab <= 0.0 || m <= 2 then 0.5
        else begin
          let s = ref 0.0 in
          for x = 0 to m - 1 do
            if x <> i && x <> j then
              s := !s +. (var.((j * n) + x) -. var.((i * n) + x))
          done;
          let l = 0.5 +. (!s /. (2.0 *. float_of_int (m - 2) *. vab)) in
          Float.max 0.0 (Float.min 1.0 l)
        end
      in
      (* The new node takes slot i. *)
      for x = 0 to m - 1 do
        if x <> i && x <> j then begin
          let dac = dist.((i * n) + x) and dbc = dist.((j * n) + x) in
          let d' =
            (lambda *. (dac -. la)) +. ((1.0 -. lambda) *. (dbc -. lb))
          in
          let d' = Float.max 0.0 d' in
          dist.((i * n) + x) <- d';
          dist.((x * n) + i) <- d';
          let vac = var.((i * n) + x) and vbc = var.((j * n) + x) in
          let v' =
            (lambda *. vac) +. ((1.0 -. lambda) *. vbc)
            -. (lambda *. (1.0 -. lambda) *. vab)
          in
          let v' = Float.max 0.0 v' in
          var.((i * n) + x) <- v';
          var.((x * n) + i) <- v'
        end
      done;
      (* The last slot moves into j. *)
      let last = m - 1 in
      if j <> last then
        for x = 0 to last - 1 do
          if x <> j then begin
            let d = dist.((last * n) + x) and vx = var.((last * n) + x) in
            dist.((j * n) + x) <- d;
            dist.((x * n) + j) <- d;
            var.((j * n) + x) <- vx;
            var.((x * n) + j) <- vx
          end
        done;
      active.(i) <- v;
      active.(j) <- active.(last);
      count := last
    done;
    (* Final three-way join, as in NJ. *)
    let b = Tree.Builder.create ~capacity:(2 * total) () in
    let root = Tree.Builder.add_root b in
    let rec attach parent (v, len) =
      let name = if v < n then Some dm.Distance.names.(v) else None in
      let id = Tree.Builder.add_child ?name ~branch_length:(Float.max 0.0 len) b ~parent in
      List.iter (attach id) children.(v)
    in
    (* Slots 0, 1 and 2 remain: pairs (0,1), (0,2) and (1,2). *)
    let dab = dist.(1) and dac = dist.(2) and dbc = dist.(n + 2) in
    attach root (active.(0), Float.max 0.0 ((dab +. dac -. dbc) /. 2.0));
    attach root (active.(1), Float.max 0.0 ((dab +. dbc -. dac) /. 2.0));
    attach root (active.(2), Float.max 0.0 ((dac +. dbc -. dab) /. 2.0));
    Tree.Builder.finish b
  end
