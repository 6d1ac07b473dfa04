module Tree = Crimson_tree.Tree
module Layered = Crimson_label.Layered
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Metrics = Crimson_obs.Metrics

(* Overview reads count how often they were served off precomputed rows
   versus the full-scan fallback for trees loaded before the summary
   table existed. *)
let m_hit = Metrics.counter "core.summary.hit"
let m_miss = Metrics.counter "core.summary.miss"

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

type row = { layer : int; entry : entry }

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
  let lc = Layered.layer_count ix in
  let rows = ref [] in
  for layer = lc - 1 downto 0 do
    for s = Layered.subtree_count ix ~layer - 1 downto 0 do
      let r0 = root0 ix ~layer s in
      let parent_sub =
        (* The containing cluster one layer up: sub id s of [layer] is
           node id s of [layer + 1], whose own subtree id is the
           parent cluster. -1 at the single top cluster. *)
        if layer + 1 >= lc then -1 else Layered.raw_sub ix ~layer:(layer + 1) s
      in
      rows :=
        {
          layer;
          entry =
            {
              sub = s;
              root = r0;
              parent_sub;
              name = (match Tree.name t r0 with Some nm -> nm | None -> "");
              nodes = nodes_c.(r0);
              leaves = leaves_c.(r0);
              height = height_a.(r0);
              blen = blen_a.(r0);
            };
        }
        :: !rows
    done
  done;
  !rows

let insert_all repo ~tree_id rows =
  let tbl = Repo.summaries repo in
  List.iter
    (fun { layer; entry = e } ->
      ignore
        (Table.insert tbl
           [|
             Record.VInt tree_id;
             Record.VInt layer;
             Record.VInt e.sub;
             Record.VInt e.root;
             Record.VInt e.parent_sub;
             Record.VText e.name;
             Record.VInt e.nodes;
             Record.VInt e.leaves;
             Record.VInt e.height;
             Record.VFloat e.blen;
           |]))
    rows;
  List.length rows

(* ----------------------------- Overview ----------------------------- *)

(* Resolution k counts layers down from the top of the decomposition:
   k = 0 is the single top cluster, each further step roughly multiplies
   cluster count by the fan-out, clamped at layer 0 (every bounded-depth
   subtree of the original tree). *)
let layer_for ~layer_count ~depth = max 0 (layer_count - 1 - depth)

let decode_entry row =
  let module S = Schema.Summaries in
  {
    sub = Record.get_int row S.c_sub;
    root = Record.get_int row S.c_root;
    parent_sub = Record.get_int row S.c_parent_sub;
    name = Record.get_text row S.c_name;
    nodes = Record.get_int row S.c_nodes;
    leaves = Record.get_int row S.c_leaves;
    height = Record.get_int row S.c_height;
    blen = Record.get_float row S.c_blen;
  }

(* Fallback for trees loaded before the summary table existed: rebuild
   the target layer's rollups from a full scan of the tree's node rows.
   Touches O(tree) pages — exactly the cost the precomputed path
   avoids — but keeps old repositories readable. *)
let overview_scan stored ~layer =
  let repo = Stored_tree.repo stored in
  let tree_id = Stored_tree.id stored in
  let layer_count = Stored_tree.layer_count stored in
  let n = Stored_tree.node_count stored in
  let parents = Array.make n (-1) and blens = Array.make n 0.0 in
  let leaf_c = Array.make n 0 in
  Stored_tree.scan stored ~lo:0 ~hi:(n - 1) (fun v ->
      let node = v.Node_view.node in
      parents.(node) <- v.Node_view.parent;
      blens.(node) <- v.Node_view.blen;
      leaf_c.(node) <- v.Node_view.leaf_hi - v.Node_view.leaf_lo;
      node + 1);
  let nodes_c = Array.make n 1 in
  let height_a = Array.make n 0 in
  let blen_a = Array.make n 0.0 in
  (* Node ids are preorder-dense, so a descending sweep visits every
     child before its parent. *)
  for v = n - 1 downto 1 do
    let p = parents.(v) in
    nodes_c.(p) <- nodes_c.(p) + nodes_c.(v);
    height_a.(p) <- max height_a.(p) (height_a.(v) + 1);
    blen_a.(p) <- blen_a.(p) +. blen_a.(v) +. blens.(v)
  done;
  (* The target layer's clusters come from the subtrees table; chaining
     root ids down layer by layer recovers each cluster's layer-0 root. *)
  let subtrees = Repo.subtrees repo in
  let find_root ~layer s =
    match
      Table.find subtrees ~index:"by_sub"
        ~key:(Schema.Subtrees.key_sub ~tree:tree_id ~layer s)
    with
    | Some (_, row) -> Record.get_int row Schema.Subtrees.c_root
    | None -> raise Not_found
  in
  let rec root_0 ~layer s =
    let r = find_root ~layer s in
    if layer = 0 then r else root_0 ~layer:(layer - 1) r
  in
  let parent_sub ~layer s =
    if layer + 1 >= layer_count then -1
    else
      match
        Table.find (Repo.layers repo) ~index:"by_node"
          ~key:(Schema.Layers.key_node ~tree:tree_id ~layer:(layer + 1) s)
      with
      | Some (_, row) -> Record.get_int row Schema.Layers.c_sub
      | None -> raise Not_found
  in
  let name_of r0 = (Stored_tree.view stored r0).Node_view.name in
  let acc = ref [] in
  Table.iter_index subtrees ~index:"by_sub"
    ~prefix:(Key.cat [ Key.int tree_id; Key.int layer ])
    (fun _ row ->
      let s = Record.get_int row Schema.Subtrees.c_sub in
      let r0 =
        if layer = 0 then Record.get_int row Schema.Subtrees.c_root
        else root_0 ~layer:(layer - 1) (Record.get_int row Schema.Subtrees.c_root)
      in
      acc :=
        {
          sub = s;
          root = r0;
          parent_sub = parent_sub ~layer s;
          name = name_of r0;
          nodes = nodes_c.(r0);
          leaves = leaf_c.(r0);
          height = height_a.(r0);
          blen = blen_a.(r0);
        }
        :: !acc;
      true);
  List.rev !acc

let overview stored ~depth =
  let repo = Stored_tree.repo stored in
  let tree_id = Stored_tree.id stored in
  let layer_count = Stored_tree.layer_count stored in
  let layer = layer_for ~layer_count ~depth in
  let acc = ref [] in
  Table.iter_index (Repo.summaries repo) ~index:"by_sub"
    ~prefix:(Schema.Summaries.key_layer ~tree:tree_id ~layer)
    (fun _ row ->
      acc := decode_entry row :: !acc;
      true);
  match List.rev !acc with
  | [] ->
      Metrics.Counter.incr m_miss;
      (layer, overview_scan stored ~layer)
  | entries ->
      Metrics.Counter.incr m_hit;
      (layer, entries)
