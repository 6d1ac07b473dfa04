module Tree = Crimson_tree.Tree

let reconstruct (dm : Distance.t) =
  let n = Distance.size dm in
  if n < 2 then invalid_arg "Nj.reconstruct: need at least 2 taxa";
  if n = 2 then begin
    let b = Tree.Builder.create () in
    let r = Tree.Builder.add_root b in
    let d = Float.max 0.0 (Distance.get dm 0 1) in
    ignore (Tree.Builder.add_child ~name:dm.Distance.names.(0) ~branch_length:(d /. 2.0) b ~parent:r);
    ignore (Tree.Builder.add_child ~name:dm.Distance.names.(1) ~branch_length:(d /. 2.0) b ~parent:r);
    Tree.Builder.finish b
  end
  else begin
    (* Node bookkeeping: taxa are 0..n-1; internal joins allocate new ids.
       children.(v) lists (child, branch length). *)
    let total = (2 * n) - 2 in
    let children = Array.make total [] in
    let next = ref n in
    (* Active node ids, and the working distances between them in an n×n
       matrix indexed by slot: w.((s * n) + s') is the distance between
       the nodes in slots s and s'. Both halves take the input's
       upper-triangle entry. *)
    let active = Array.init n Fun.id in
    let count = ref n in
    let w = Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let v = Distance.get dm i j in
        w.((i * n) + j) <- v;
        w.((j * n) + i) <- v
      done
    done;
    while !count > 3 do
      let m = !count in
      (* Row sums. *)
      let r = Array.make m 0.0 in
      for i = 0 to m - 1 do
        let row = i * n in
        for j = 0 to m - 1 do
          if i <> j then r.(i) <- r.(i) +. w.(row + j)
        done
      done;
      (* Minimise the Q criterion. *)
      let best_i = ref 0 and best_j = ref 1 and best_q = ref infinity in
      let scale = float_of_int (m - 2) in
      for i = 0 to m - 1 do
        let row = i * n in
        for j = i + 1 to m - 1 do
          let q = (scale *. w.(row + j)) -. r.(i) -. r.(j) in
          if q < !best_q then begin
            best_q := q;
            best_i := i;
            best_j := j
          end
        done
      done;
      let i = !best_i and j = !best_j in
      let a = active.(i) and b = active.(j) in
      let dij = w.((i * n) + j) in
      let la =
        (dij /. 2.0) +. ((r.(i) -. r.(j)) /. (2.0 *. float_of_int (m - 2)))
      in
      let la = Float.max 0.0 (Float.min dij la) in
      let lb = Float.max 0.0 (dij -. la) in
      let v = !next in
      incr next;
      children.(v) <- [ (a, la); (b, lb) ];
      (* Distances from the new node, which takes slot i. *)
      for x = 0 to m - 1 do
        if x <> i && x <> j then begin
          let dv = Float.max 0.0 ((w.((i * n) + x) +. w.((j * n) + x) -. dij) /. 2.0) in
          w.((i * n) + x) <- dv;
          w.((x * n) + i) <- dv
        end
      done;
      (* The last slot moves into j. *)
      let last = m - 1 in
      if j <> last then begin
        for x = 0 to last - 1 do
          if x <> j then begin
            let d = w.((last * n) + x) in
            w.((j * n) + x) <- d;
            w.((x * n) + j) <- d
          end
        done
      end;
      active.(i) <- v;
      active.(j) <- active.(last);
      count := last
    done;
    (* Final join: connect the last three nodes at a root. *)
    let b = Tree.Builder.create ~capacity:(2 * total) () in
    let root = Tree.Builder.add_root b in
    let rec attach parent (v, len) =
      let name = if v < n then Some dm.Distance.names.(v) else None in
      let id = Tree.Builder.add_child ?name ~branch_length:(Float.max 0.0 len) b ~parent in
      List.iter (attach id) children.(v)
    in
    (* attach recurses once per tree edge with depth bounded by the join
       tree height (~log n on random inputs, n worst case) — acceptable
       for the few-thousand-taxon inputs NJ is used on. *)
    (* Slots 0, 1 and 2 remain: pairs (0,1), (0,2) and (1,2). *)
    let dab = w.(1) and dac = w.(2) and dbc = w.(n + 2) in
    attach root (active.(0), Float.max 0.0 ((dab +. dac -. dbc) /. 2.0));
    attach root (active.(1), Float.max 0.0 ((dab +. dbc -. dac) /. 2.0));
    attach root (active.(2), Float.max 0.0 ((dac +. dbc -. dab) /. 2.0));
    Tree.Builder.finish b
  end
