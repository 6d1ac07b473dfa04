module Tree = Crimson_tree.Tree

exception Projection_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Projection_error s)) fmt

(* Node ids are dense preorder ranks, so preorder order is integer
   order. *)
let sorted_distinct_leaves tree leaf_ids =
  if leaf_ids = [] then error "empty leaf set";
  let sorted = List.sort_uniq Int.compare leaf_ids in
  List.iter
    (fun l -> if not (Stored_tree.is_leaf tree l) then error "node %d is not a leaf" l)
    sorted;
  if List.length sorted <> List.length leaf_ids then error "duplicate leaves in set";
  sorted

(* Projection node set: the leaves plus the LCA of each preorder-adjacent
   pair. Classic fact: this set is closed under pairwise LCA and is
   exactly the branching structure of the induced subtree. *)
let projection_nodes tree leaf_ids =
  let sorted = sorted_distinct_leaves tree leaf_ids in
  let rec lcas acc = function
    | a :: (b :: _ as rest) -> lcas (Stored_tree.lca tree a b :: acc) rest
    | [ _ ] | [] -> acc
  in
  List.sort_uniq Int.compare (List.rev_append (lcas [] sorted) sorted)

let project tree leaf_ids =
  let nodes = projection_nodes tree leaf_ids in
  (* Ancestor-stack sweep over the preorder-sorted node set: the parent
     of each node in the projection is the nearest stack entry that is
     its ancestor (the paper's "rightmost path" construction). *)
  let b = Tree.Builder.create () in
  let stack = ref [] in
  List.iter
    (fun v ->
      let rec unwind = function
        | top :: rest when not (Stored_tree.is_ancestor_or_self tree ~ancestor:(fst top) v)
          -> unwind rest
        | s -> s
      in
      stack := unwind !stack;
      let view = Stored_tree.view tree v in
      let name = match view.Node_view.name with "" -> None | s -> Some s in
      let node_in_proj =
        match !stack with
        | [] -> Tree.Builder.add_root ?name b
        | (parent_orig, parent_proj) :: _ ->
            (* Merged edge weight = difference of cumulative distances:
               exactly the sum of the branch lengths along the contracted
               path (paper Figure 2). *)
            let branch_length =
              view.Node_view.root_dist
              -. (Stored_tree.view tree parent_orig).Node_view.root_dist
            in
            Tree.Builder.add_child ?name ~branch_length:(Float.max 0.0 branch_length) b
              ~parent:parent_proj
      in
      stack := (v, node_in_proj) :: !stack)
    nodes;
  Tree.Builder.finish b

(* ---------------------------- Telemetry ---------------------------- *)

let fattr key v = Crimson_obs.Span.attr key (Crimson_obs.Json.Num (float_of_int v))

let project tree leaf_ids =
  Crimson_obs.Span.with_ ~name:"core.projection.project" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "leaves" (List.length leaf_ids);
      project tree leaf_ids)

let project_names tree names =
  match Stored_tree.leaf_ids_by_names tree names with
  | Ok ids -> project tree ids
  | Error name -> error "unknown or non-leaf species %S" name
