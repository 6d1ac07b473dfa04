let root_of tree inputs = Stored_tree.lca_set tree inputs

let size tree inputs =
  let lca = root_of tree inputs in
  let lo, hi = Stored_tree.leaf_interval tree lca in
  hi - lo

let leaf_ids ?(limit = 10_000) tree inputs =
  let lca = root_of tree inputs in
  (* The clade is the id range [lca, subtree_end lca]: stream it and keep
     the leaves, stopping at the limit. *)
  let last = Stored_tree.subtree_end tree lca in
  let acc = ref [] and count = ref 0 in
  if limit > 0 then
    Stored_tree.scan tree ~lo:lca ~hi:last (fun v ->
        let n = v.Node_view.node in
        if v.Node_view.subtree_end = n then begin
          acc := n :: !acc;
          incr count
        end;
        if !count >= limit then last + 1 else n + 1);
  List.rev !acc

let member tree ~clade_of node =
  let lca = root_of tree clade_of in
  Stored_tree.is_ancestor_or_self tree ~ancestor:lca node

(* A clade is the id range [lca, subtree_end lca]: its size is known
   before any row is read, and streaming the range in preorder meets
   every parent before its children, so parent ids rebuild the tree and
   the new ids are the stored ones shifted by [lca]. *)
let subtree ?(limit = 100_000) tree inputs =
  let module T = Crimson_tree.Tree in
  let lca = root_of tree inputs in
  let last = Stored_tree.subtree_end tree lca in
  if last - lca + 1 > limit then
    invalid_arg (Printf.sprintf "Clade.subtree: clade exceeds %d nodes" limit);
  let b = T.Builder.create ~capacity:(last - lca + 1) () in
  Stored_tree.scan tree ~lo:lca ~hi:last (fun view ->
      let name = match view.Node_view.name with "" -> None | s -> Some s in
      let v = view.Node_view.node in
      if v = lca then ignore (T.Builder.add_root ?name b)
      else
        ignore
          (T.Builder.add_child ?name ~branch_length:view.Node_view.blen b
             ~parent:(view.Node_view.parent - lca));
      v + 1);
  T.Builder.finish b

let nodes ?(limit = 10_000) tree inputs =
  let lca = root_of tree inputs in
  let last = min (Stored_tree.subtree_end tree lca) (lca + limit - 1) in
  List.init (max 0 (last - lca + 1)) (fun i -> lca + i)

(* ---------------------------- Telemetry ---------------------------- *)
(* Shadow the public entry points with "core.clade." spans: every call
   lands in the registry's latency histograms and, at debug level, the
   trace log. Internal recursion above stays unwrapped. *)

let fattr key v = Crimson_obs.Span.attr key (Crimson_obs.Json.Num (float_of_int v))

let root_of tree inputs =
  Crimson_obs.Span.with_ ~name:"core.clade.root_of" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "inputs" (List.length inputs);
      root_of tree inputs)

let size tree inputs =
  Crimson_obs.Span.with_ ~name:"core.clade.size" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "inputs" (List.length inputs);
      size tree inputs)

let leaf_ids ?limit tree inputs =
  Crimson_obs.Span.with_ ~name:"core.clade.leaf_ids" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "inputs" (List.length inputs);
      let ids = leaf_ids ?limit tree inputs in
      fattr "leaves" (List.length ids);
      ids)

let member tree ~clade_of node =
  Crimson_obs.Span.with_ ~name:"core.clade.member" (fun () -> member tree ~clade_of node)

let nodes ?limit tree inputs =
  Crimson_obs.Span.with_ ~name:"core.clade.nodes" (fun () -> nodes ?limit tree inputs)

let subtree ?limit tree inputs =
  Crimson_obs.Span.with_ ~name:"core.clade.subtree" (fun () -> subtree ?limit tree inputs)
