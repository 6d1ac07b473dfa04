module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Vec = Crimson_util.Vec

(* Undirected view: adjacency lists of (neighbor, edge length). *)
let adjacency t =
  let n = Tree.node_count t in
  let adj = Array.make n [] in
  for v = 0 to n - 1 do
    let p = Tree.parent t v in
    if p <> Tree.nil then begin
      let len = Tree.branch_length t v in
      adj.(v) <- (p, len) :: adj.(v);
      adj.(p) <- (v, len) :: adj.(p)
    end
  done;
  adj

(* Single-source distances and predecessors over the undirected tree. *)
let bfs_far t adj source =
  let n = Tree.node_count t in
  let dist = Array.make n infinity in
  let pred = Array.make n Tree.nil in
  dist.(source) <- 0.0;
  let stack = Vec.create () in
  Vec.push stack source;
  while not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    List.iter
      (fun (w, len) ->
        if dist.(w) = infinity then begin
          dist.(w) <- dist.(v) +. len;
          pred.(w) <- v;
          Vec.push stack w
        end)
      adj.(v)
  done;
  (dist, pred)

(* Build a rooted tree from an undirected adjacency, rooted either at an
   existing node or at a point splitting edge (x, y). *)
let rebuild t adj ~root_spec =
  let b = Tree.Builder.create ~capacity:(Tree.node_count t + 1) () in
  let visited = Array.make (Tree.node_count t) false in
  let stack = Vec.create () in
  (* Each stack entry: (node in old tree, parent id in new tree, length). *)
  let root_id =
    match root_spec with
    | `Node v ->
        visited.(v) <- true;
        let id = Tree.Builder.add_root ?name:(Tree.name t v) b in
        List.iter (fun (w, len) -> Vec.push stack (w, id, len)) adj.(v);
        id
    | `Edge (x, y, dx, dy) ->
        let id = Tree.Builder.add_root b in
        visited.(x) <- true;
        visited.(y) <- true;
        Vec.push stack (x, id, dx);
        Vec.push stack (y, id, dy);
        id
  in
  ignore root_id;
  while not (Vec.is_empty stack) do
    let v, parent, len = Vec.pop stack in
    visited.(v) <- true;
    let id =
      Tree.Builder.add_child ?name:(Tree.name t v) ~branch_length:(Float.max 0.0 len) b
        ~parent
    in
    List.iter (fun (w, wlen) -> if not (visited.(w)) then Vec.push stack (w, id, wlen)) adj.(v)
  done;
  (* Nodes that were binary in the unrooted sense (e.g. the old root)
     become unary after re-hanging; contract them. *)
  Ops.suppress_unary ~keep_root:true (Tree.Builder.finish b)

let midpoint t =
  if Tree.leaf_count t < 2 then invalid_arg "Reroot.midpoint: need at least 2 leaves";
  let adj = adjacency t in
  let leaves = Tree.leaves t in
  let d0, _ = bfs_far t adj leaves.(0) in
  let a =
    Array.fold_left
      (fun best l -> if d0.(l) > d0.(best) then l else best)
      leaves.(0) leaves
  in
  let da, pred = bfs_far t adj a in
  let b =
    Array.fold_left (fun best l -> if da.(l) > da.(best) then l else best) a leaves
  in
  let diameter = da.(b) in
  let half = diameter /. 2.0 in
  (* A leaf never becomes the root, or the rooted tree would lose it: a
     midpoint on a leaf (a zero-diameter tree has its midpoint on every
     node) roots on the leaf's edge, at the leaf's end. *)
  let at_node v =
    match adj.(v) with
    | [ (p, len) ] when Tree.is_leaf t v -> `Edge (v, p, 0.0, len)
    | _ -> `Node v
  in
  (* Walk back from b toward a until the midpoint edge. *)
  let rec walk v =
    let p = pred.(v) in
    if p = Tree.nil then at_node v
    else if Float.abs (da.(v) -. half) < 1e-12 then at_node v
    else if da.(p) < half && da.(v) > half then
      (* Midpoint inside edge (p, v): distance from v's side. *)
      `Edge (v, p, da.(v) -. half, half -. da.(p))
    else walk p
  in
  (* walk recursion depth = path length; paths in reconstruction outputs
     are at most a few thousand nodes. *)
  let spec = if diameter <= 0.0 then at_node a else walk b in
  rebuild t adj ~root_spec:spec

let at_outgroup t ~outgroup =
  let leaf =
    match Tree.leaf_by_name t outgroup with
    | Some l -> l
    | None -> raise Not_found
  in
  let adj = adjacency t in
  let p = Tree.parent t leaf in
  if p = Tree.nil then invalid_arg "Reroot.at_outgroup: the tree is a single leaf";
  let len = Tree.branch_length t leaf in
  rebuild t adj ~root_spec:(`Edge (leaf, p, len /. 2.0, len /. 2.0))
