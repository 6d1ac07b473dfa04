module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Layered = Crimson_label.Layered

exception Unknown_tree of string
exception Unknown_node = Node_view.Unknown_node

type t = {
  repo : Repo.t;
  id : int;
  name : string;
  f : int;
  layer_count : int;
  node_count : int;
  leaf_count : int;
  cache : Node_view.cache;
  mutable frontier : (float * Node_view.t list) option;
      (* the last frontier scanned, with its cut time *)
  mutable names : Name_run.t option; (* read on the first lookup by name *)
}

let of_meta_row ?cache_capacity repo row =
  let id = Record.get_int row Schema.Trees.c_id in
  let node_count = Record.get_int row Schema.Trees.c_nodes in
  {
    repo;
    id;
    name = Record.get_text row Schema.Trees.c_name;
    f = Record.get_int row Schema.Trees.c_f;
    layer_count = Record.get_int row Schema.Trees.c_layers;
    node_count;
    leaf_count = Record.get_int row Schema.Trees.c_leaves;
    cache =
      Node_view.create_cache ?capacity:cache_capacity repo ~tree:id ~nodes:node_count;
    frontier = None;
    names = None;
  }

let open_id ?cache_capacity repo id =
  match
    Table.find (Repo.trees repo) ~index:"by_id" ~key:(Schema.Trees.key_id id)
  with
  | Some (_, row) -> of_meta_row ?cache_capacity repo row
  | None -> raise (Unknown_tree (Printf.sprintf "#%d" id))

let open_name ?cache_capacity repo name =
  match
    Table.find (Repo.trees repo) ~index:"by_name"
      ~key:(Schema.Trees.key_name name)
  with
  | Some (_, row) -> of_meta_row ?cache_capacity repo row
  | None -> raise (Unknown_tree name)

let list_all repo =
  let acc = ref [] in
  Table.scan (Repo.trees repo) (fun _ row ->
      acc :=
        (Record.get_int row Schema.Trees.c_id, Record.get_text row Schema.Trees.c_name)
        :: !acc);
  List.sort compare !acc

let repo t = t.repo
let id t = t.id
let name t = t.name
let f t = t.f
let layer_count t = t.layer_count
let node_count t = t.node_count
let leaf_count t = t.leaf_count
let root _ = 0

(* --------------------------- Node access ---------------------------- *)
(* Every per-node read goes through the decoded-view cache: one miss
   fetches the row, every further field read of that node is an
   in-memory record access. *)

let view t node =
  Crimson_obs.Cost.node_view ();
  Node_view.node t.cache node
let cache_resident t = Node_view.resident t.cache

let invalidate_cache t =
  Node_view.invalidate t.cache;
  t.frontier <- None

let parent t node = (view t node).Node_view.parent
let edge_index t node = (view t node).Node_view.edge_index

let node_name t node =
  match (view t node).Node_view.name with "" -> None | s -> Some s

let branch_length t node = (view t node).Node_view.blen
let root_distance t node = (view t node).Node_view.root_dist

let subtree_end t node = (view t node).Node_view.subtree_end

(* A subtree is the id range [node, subtree_end]: the first child, if
   any, is [node + 1], and each next sibling starts one past the end of
   the previous one's subtree. Preorder visits children in edge order. *)
let children t node =
  let last = subtree_end t node in
  let rec from c acc =
    if c > last then List.rev acc else from (subtree_end t c + 1) (c :: acc)
  in
  from (node + 1) []

let leaf_interval t node =
  let v = view t node in
  (v.Node_view.leaf_lo, v.Node_view.leaf_hi)

let is_leaf t node = subtree_end t node = node
let scan t ~lo ~hi f = Node_view.scan t.cache ~lo ~hi f
let prime t nodes ~names ~subtree_end view_of =
  t.names <- Some names;
  Node_view.prime t.cache nodes ~subtree_end view_of
let group t table ~layer = Node_view.group t.cache table ~layer

(* A preorder skip-scan from the root: a node past the cut time is on
   the frontier and its subtree is skipped (root distances grow along
   every path), anything else steps to the next id. Only the cap above
   the frontier and the frontier rows themselves are read, in ascending
   id order, which is the order the paper's DFS would emit them in.

   A loaded tree never changes under its handle, so the handle keeps
   the last frontier it scanned, keyed by the exact time, and the next
   call at that time reads nothing. It is kept only once the scan has
   finished (a deadline that expires mid-scan leaves nothing), only if
   it holds no more views than the cache may, and it goes with the
   views in [invalidate_cache]. *)
let frontier t ~time =
  match t.frontier with
  | Some (at, views) when Float.equal at time -> views
  | Some _ | None ->
      let acc = ref [] in
      scan t ~lo:(root t) ~hi:(t.node_count - 1) (fun v ->
          if v.Node_view.root_dist > time then begin
            acc := v :: !acc;
            v.Node_view.subtree_end + 1
          end
          else v.Node_view.node + 1);
      let views = List.rev !acc in
      if List.compare_length_with views (Node_view.capacity t.cache) <= 0 then
        t.frontier <- Some (time, views);
      views

let leaf_by_ordinal t ord =
  match Node_view.leaf_by_ordinal t.cache ord with
  | Some leaf -> leaf
  | None -> raise (Unknown_node ord)

let node_by_name t name =
  if name = "" then None
  else
    let run =
      match t.names with
      | Some run -> run
      | None ->
          let run = Name_run.open_run t.repo ~tree:t.id in
          t.names <- Some run;
          run
    in
    Name_run.find run name

let leaf_ids_by_names t names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match node_by_name t name with
        | Some node when is_leaf t node -> go (node :: acc) rest
        | Some _ | None -> Error name)
  in
  go [] names

(* ----------------------- Layered-label engine ----------------------- *)

module Store = struct
  type nonrec t = t

  let layer_count t = t.layer_count

  let parent t ~layer n =
    if layer = 0 then (view t n).Node_view.parent
    else (Node_view.layer_view t.cache ~layer n).Node_view.l_parent

  let edge_index t ~layer n =
    if layer = 0 then (view t n).Node_view.edge_index
    else (Node_view.layer_view t.cache ~layer n).Node_view.l_edge_index

  let sub t ~layer n =
    if layer = 0 then (view t n).Node_view.sub
    else (Node_view.layer_view t.cache ~layer n).Node_view.l_sub

  let local_depth t ~layer n =
    if layer = 0 then (view t n).Node_view.local_depth
    else (Node_view.layer_view t.cache ~layer n).Node_view.l_local_depth

  let sub_root t ~layer s = Node_view.sub_root t.cache ~layer s
end

module Engine = Layered.Engine (Store)

(* Hot path: a pre-created histogram, and a span only while a trace is
   collecting (Span.record). *)
let h_lca = Crimson_obs.Metrics.histogram "core.lca"

let lca t a b =
  ignore (view t a);
  ignore (view t b);
  Crimson_obs.Span.record h_lca
    ~attrs:(fun () ->
      Crimson_obs.Json.
        [
          ("tree", Num (float_of_int t.id));
          ("a", Num (float_of_int a));
          ("b", Num (float_of_int b));
        ])
    (fun () -> Engine.lca t a b)

let lca_set t = function
  | [] -> invalid_arg "Stored_tree.lca_set: empty set"
  | first :: rest -> List.fold_left (lca t) first rest

(* Preorder order and ancestry need no label walk: ids are dense
   preorder ranks, so a node's descendants are exactly the ids in
   (node, subtree_end]. *)
let compare_preorder t a b =
  if a < 0 || a >= t.node_count then raise (Unknown_node a);
  if b < 0 || b >= t.node_count then raise (Unknown_node b);
  Int.compare a b

let is_ancestor_or_self t ~ancestor n =
  let last = subtree_end t ancestor in
  if n < 0 || n >= t.node_count then raise (Unknown_node n);
  ancestor <= n && n <= last

let path_distance t a b =
  let l = lca t a b in
  root_distance t a +. root_distance t b -. (2.0 *. root_distance t l)

let path_nodes t a b =
  let l = lca t a b in
  let rec climb v acc = if v = l then acc else climb (parent t v) (v :: acc) in
  (* a … l ascending, then l, then descend to b. *)
  let up_side = List.rev (climb a []) in
  let down_side = climb b [] in
  up_side @ (l :: down_side)

let depth t n =
  (* Σ_k local_depth_k · f^k along the subtree chain. *)
  let total = ref 0 in
  let span = ref 1 in
  let x = ref n in
  for k = 0 to t.layer_count - 1 do
    total := !total + (Store.local_depth t ~layer:k !x * !span);
    span := !span * t.f;
    if k < t.layer_count - 1 then x := Store.sub t ~layer:k !x
  done;
  !total
