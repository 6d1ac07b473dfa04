module Tree = Crimson_tree.Tree
module Metrics = Crimson_tree.Metrics

exception Pattern_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Pattern_error s)) fmt

type result = {
  matched : bool;
  weighted_match : bool;
  rf_distance : int;
  rf_normalized : float;
  projection : Tree.t;
}

let pattern_leaf_names pattern =
  let seen = Hashtbl.create 16 in
  Array.to_list (Tree.leaves pattern)
  |> List.map (fun l ->
         match Tree.name pattern l with
         | None -> error "pattern has an unnamed leaf"
         | Some name ->
             if Hashtbl.mem seen name then error "pattern repeats leaf %S" name;
             Hashtbl.add seen name ();
             name)

(* Comparison must ignore internal node names: the stored tree labels its
   internal nodes, a user's pattern usually does not. *)
let strip_internal_names t =
  let b = Tree.Builder.create ~capacity:(Tree.node_count t) () in
  let ids = Array.make (Tree.node_count t) Tree.nil in
  Array.iter
    (fun v ->
      let name = if Tree.is_leaf t v then Tree.name t v else None in
      let p = Tree.parent t v in
      if p = Tree.nil then ids.(v) <- Tree.Builder.add_root ?name b
      else
        ids.(v) <-
          Tree.Builder.add_child ?name ~branch_length:(Tree.branch_length t v) b
            ~parent:ids.(p))
    (Tree.preorder t);
  Tree.Builder.finish b

let match_pattern stored pattern =
  let names = pattern_leaf_names pattern in
  let projection =
    try Projection.project_names stored names
    with Projection.Projection_error msg -> error "%s" msg
  in
  let bare_pattern = strip_internal_names pattern in
  let bare_projection = strip_internal_names projection in
  let matched = Tree.equal_unordered ~weighted:false bare_pattern bare_projection in
  let weighted_match =
    matched
    && Tree.equal_unordered ~weighted:true ~tolerance:1e-6 bare_pattern bare_projection
  in
  let rf_distance = Metrics.robinson_foulds pattern projection in
  let rf_normalized = Metrics.robinson_foulds_normalized pattern projection in
  { matched; weighted_match; rf_distance; rf_normalized; projection }

(* ---------------------------- Telemetry ---------------------------- *)

let match_pattern stored pattern =
  Crimson_obs.Span.with_ ~name:"core.pattern.match" (fun () ->
      Crimson_obs.Span.attr "tree"
        (Crimson_obs.Json.Num (float_of_int (Stored_tree.id stored)));
      let result = match_pattern stored pattern in
      Crimson_obs.Span.attr "matched" (Crimson_obs.Json.Bool result.matched);
      Crimson_obs.Span.attr "rf"
        (Crimson_obs.Json.Num (float_of_int result.rf_distance));
      result)
