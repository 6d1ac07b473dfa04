type t = {
  nodes : int;
  leaves : int;
  max_depth : int;
  mean_leaf_depth : float;
  max_out_degree : int;
  binary_fraction : float;
  max_root_distance : float;
  mean_branch_length : float;
  max_branch_length : float;
  depth_histogram : (int * int) array;
}

let compute stored =
  let n = Stored_tree.node_count stored in
  (* Stored node ids are preorder-dense, so a parent's id is always below
     its child's: depths resolve in one ascending pass. *)
  let parent = Array.make n (-1) in
  let is_leaf = Array.make n false in
  let blen = Array.make n 0.0 in
  let max_root_distance = ref 0.0 in
  let children_count = Array.make n 0 in
  Stored_tree.scan stored ~lo:0 ~hi:(n - 1) (fun nv ->
      let v = nv.Node_view.node in
      parent.(v) <- nv.Node_view.parent;
      blen.(v) <- nv.Node_view.blen;
      is_leaf.(v) <- nv.Node_view.subtree_end = v;
      max_root_distance := Float.max !max_root_distance nv.Node_view.root_dist;
      v + 1);
  for v = 0 to n - 1 do
    if parent.(v) >= 0 then children_count.(parent.(v)) <- children_count.(parent.(v)) + 1
  done;
  let depth = Array.make n 0 in
  let max_depth = ref 0 in
  let leaf_depth_sum = ref 0 in
  let leaves = ref 0 in
  let blen_sum = ref 0.0 in
  let max_blen = ref 0.0 in
  let max_deg = ref 0 in
  let binary = ref 0 in
  let internal = ref 0 in
  for v = 0 to n - 1 do
    if parent.(v) >= 0 then begin
      depth.(v) <- depth.(parent.(v)) + 1;
      blen_sum := !blen_sum +. blen.(v);
      max_blen := Float.max !max_blen blen.(v)
    end;
    max_depth := max !max_depth depth.(v);
    if is_leaf.(v) then begin
      incr leaves;
      leaf_depth_sum := !leaf_depth_sum + depth.(v)
    end
    else begin
      incr internal;
      max_deg := max !max_deg children_count.(v);
      if children_count.(v) = 2 then incr binary
    end
  done;
  (* Power-of-two depth buckets. *)
  let bucket_of d =
    let rec go b = if d < b then b else go (2 * b) in
    if d = 0 then 0 else go 1
  in
  let hist = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      let b = bucket_of d in
      Hashtbl.replace hist b (1 + Option.value ~default:0 (Hashtbl.find_opt hist b)))
    depth;
  let depth_histogram =
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) hist []
    |> List.sort compare |> Array.of_list
  in
  {
    nodes = n;
    leaves = !leaves;
    max_depth = !max_depth;
    mean_leaf_depth =
      (if !leaves = 0 then 0.0
       else float_of_int !leaf_depth_sum /. float_of_int !leaves);
    max_out_degree = !max_deg;
    binary_fraction =
      (if !internal = 0 then 0.0 else float_of_int !binary /. float_of_int !internal);
    max_root_distance = !max_root_distance;
    mean_branch_length =
      (if n <= 1 then 0.0 else !blen_sum /. float_of_int (n - 1));
    max_branch_length = !max_blen;
    depth_histogram;
  }

let pp ppf t =
  Format.fprintf ppf "nodes: %d@\nleaves: %d@\nmax depth: %d@\nmean leaf depth: %.1f@\n"
    t.nodes t.leaves t.max_depth t.mean_leaf_depth;
  Format.fprintf ppf
    "max out-degree: %d@\nbinary internal nodes: %.0f%%@\nheight (time): %g@\n"
    t.max_out_degree (100.0 *. t.binary_fraction) t.max_root_distance;
  Format.fprintf ppf "branch length: mean %g, max %g@\ndepth histogram:@\n"
    t.mean_branch_length t.max_branch_length;
  Array.iter
    (fun (bucket, count) ->
      (* Bucket 0 holds depth 0; bucket b >= 2 holds depths b/2 .. b-1. *)
      if bucket = 0 then Format.fprintf ppf "  depth 0          %d@\n" count
      else
        Format.fprintf ppf "  depth %-6s     %d@\n"
          (Printf.sprintf "%d..%d" (bucket / 2) (bucket - 1))
          count)
    t.depth_histogram

let to_string t = Format.asprintf "%a" pp t

(* ---------------------------- Telemetry ---------------------------- *)

let compute stored =
  Crimson_obs.Span.with_ ~name:"core.tree_stats" (fun () -> compute stored)
