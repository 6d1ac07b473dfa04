module Tree = Crimson_tree.Tree
module Layered = Crimson_label.Layered
module Record = Crimson_storage.Record
module Clustered = Crimson_storage.Clustered
module Metrics = Crimson_obs.Metrics

(* Overview reads served, one per call. *)
let m_hit = Metrics.counter "core.summary.hit"

type entry = {
  sub : int;
  root : int;
  parent_sub : int;
  name : string;
  nodes : int;
  leaves : int;
  height : int;
  blen : float;
}

(* ------------------------------ Build ------------------------------ *)

(* Map a subtree id of [layer] down to the layer-0 node id of its root:
   the subtree's root is a node of the same layer, and a node of layer
   l >= 1 is by construction a subtree id of layer l - 1. *)
let rec root0 ix ~layer s =
  let r = Layered.raw_sub_root ix ~layer s in
  if layer = 0 then r else root0 ix ~layer:(layer - 1) r

let build ix t =
  let n = Tree.node_count t in
  (* Per-node rollups over the full original subtree, one postorder
     pass. [blen] sums the branch lengths of the edges {e inside} the
     subtree — the root's own parent edge is not part of its clade. *)
  let nodes_c = Array.make n 1 in
  let leaves_c = Array.make n 0 in
  let height_a = Array.make n 0 in
  let blen_a = Array.make n 0.0 in
  Array.iter
    (fun v ->
      if Tree.is_leaf t v then leaves_c.(v) <- 1;
      Tree.iter_children t v (fun c ->
          nodes_c.(v) <- nodes_c.(v) + nodes_c.(c);
          leaves_c.(v) <- leaves_c.(v) + leaves_c.(c);
          height_a.(v) <- max height_a.(v) (height_a.(c) + 1);
          blen_a.(v) <- blen_a.(v) +. blen_a.(c) +. Tree.branch_length t c))
    (Tree.postorder t);
  Array.init (Layered.layer_count ix) (fun layer ->
      Array.init (Layered.subtree_count ix ~layer) (fun s ->
          let r0 = root0 ix ~layer s in
          {
            sub = s;
            root = r0;
            (* The containing cluster one layer up: sub id s of [layer]
               is node id s of [layer + 1], whose own subtree id is the
               parent cluster. -1 at the single top cluster. *)
            parent_sub =
              (if layer + 1 >= Layered.layer_count ix then -1
               else Layered.raw_sub ix ~layer:(layer + 1) s);
            name = (match Tree.name t r0 with Some nm -> nm | None -> "");
            nodes = nodes_c.(r0);
            leaves = leaves_c.(r0);
            height = height_a.(r0);
            blen = blen_a.(r0);
          }))

let write repo ~tree_id layers =
  let table = Repo.clustered repo Repo.summaries in
  Array.iteri
    (fun layer entries ->
      ignore
        (Clustered.write table [ tree_id; layer ] ~rows:(Array.length entries) (fun s ->
             let e = entries.(s) in
             Record.
               [|
                 VInt tree_id; VInt layer; VInt e.sub; VInt e.root; VInt e.parent_sub;
                 VText e.name; VInt e.nodes; VInt e.leaves; VInt e.height; VFloat e.blen;
               |])))
    layers;
  Array.fold_left (fun acc entries -> acc + Array.length entries) 0 layers

(* ----------------------------- Overview ----------------------------- *)

(* Resolution k counts layers down from the top of the decomposition:
   k = 0 is the single top cluster, each further step roughly multiplies
   cluster count by the fan-out, clamped at layer 0 (every bounded-depth
   subtree of the original tree). *)
let layer_for ~layer_count ~depth = max 0 (layer_count - 1 - depth)

(* Columns in [Schema.Summaries] order after (tree, layer, sub). *)
let decode_entry sub r =
  let module R = Record.Reader in
  let root = R.int r in
  let parent_sub = R.int r in
  let name = R.text r in
  let nodes = R.int r in
  let leaves = R.int r in
  let height = R.int r in
  let blen = R.float r in
  R.finish r;
  { sub; root; parent_sub; name; nodes; leaves; height; blen }

let iter stored ~depth f =
  let layer = layer_for ~layer_count:(Stored_tree.layer_count stored) ~depth in
  Clustered.scan (Stored_tree.group stored Repo.summaries ~layer) ~lo:0 ~hi:max_int
    decode_entry (fun e ->
      f e;
      e.sub + 1);
  Metrics.Counter.incr m_hit;
  layer

let overview stored ~depth =
  let acc = ref [] in
  let layer = iter stored ~depth (fun e -> acc := e :: !acc) in
  (layer, List.rev !acc)
