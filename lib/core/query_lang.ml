module Tree = Crimson_tree.Tree
module Newick = Crimson_formats.Newick
module Prng = Crimson_util.Prng

type outcome = {
  text : string;
  result : string;
}

(* ----------------------------- Parsing ----------------------------- *)

type arg =
  | Name of string  (** Bare or quoted word. *)
  | Number of float

type call = {
  fn : string;
  args : arg list;
}

exception Bad_query of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_query s)) fmt

let is_bare_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '#' -> true
  | _ -> false

let parse_query s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let bare () =
    let start = !pos in
    while !pos < n && is_bare_char s.[!pos] do
      incr pos
    done;
    if !pos = start then bad "expected a name at position %d" start;
    String.sub s start (!pos - start)
  in
  let quoted () =
    (* Single quotes, '' escapes a quote. *)
    incr pos;
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then bad "unterminated quote"
      else if s.[!pos] = '\'' then begin
        incr pos;
        if !pos < n && s.[!pos] = '\'' then begin
          Buffer.add_char buf '\'';
          incr pos;
          loop ()
        end
      end
      else begin
        Buffer.add_char buf s.[!pos];
        incr pos;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  in
  skip_ws ();
  let fn = String.lowercase_ascii (bare ()) in
  skip_ws ();
  (match peek () with
  | Some '(' -> incr pos
  | _ -> bad "expected '(' after %s" fn);
  let args = ref [] in
  let rec parse_args () =
    skip_ws ();
    match peek () with
    | Some ')' -> incr pos
    | None -> bad "missing ')'"
    | Some '\'' ->
        args := Name (quoted ()) :: !args;
        after_arg ()
    | Some c when is_bare_char c ->
        let word = bare () in
        let arg =
          match float_of_string_opt word with
          | Some v -> Number v
          | None -> Name word
        in
        args := arg :: !args;
        after_arg ()
    | Some c -> bad "unexpected character %C" c
  and after_arg () =
    skip_ws ();
    match peek () with
    | Some ',' ->
        incr pos;
        parse_args ()
    | Some ')' -> incr pos
    | Some c -> bad "expected ',' or ')', found %C" c
    | None -> bad "missing ')'"
  in
  parse_args ();
  skip_ws ();
  if !pos <> n then bad "trailing input after ')'";
  { fn; args = List.rev !args }

(* The call syntax is shared with the collection query surface
   ([Crimson_collection.Coll_lang] parses the same fn(args) texts), so
   the parser is exported behind a small stable facade. *)
module Call = struct
  type nonrec arg = arg =
    | Name of string
    | Number of float

  type t = call = {
    fn : string;
    args : arg list;
  }

  let parse text =
    match parse_query text with
    | call -> Ok call
    | exception Bad_query msg -> Error msg
end

(* ---------------------------- Execution ---------------------------- *)

let node_label stored n =
  match (Stored_tree.view stored n).Node_view.name with
  | "" -> Printf.sprintf "#%d" n
  | s -> s

let resolve stored = function
  | Number v -> bad "expected a species name, found the number %g" v
  | Name name -> (
      match Stored_tree.node_by_name stored name with
      | Some n -> n
      | None -> (
          (* Allow raw node ids written as #123. *)
          match
            if String.length name > 1 && name.[0] = '#' then
              int_of_string_opt (String.sub name 1 (String.length name - 1))
            else None
          with
          | Some id when id >= 0 && id < Stored_tree.node_count stored -> id
          | Some _ | None -> bad "unknown species or node %S" name))

let number = function
  | Number v -> v
  | Name s -> bad "expected a number, found %S" s

let string_arg = function
  | Name s -> s
  | Number v -> bad "expected a string, found the number %g" v

let names_of stored nodes = String.concat ", " (List.map (node_label stored) nodes)

let execute ~rng repo stored { fn; args } =
  match (fn, args) with
  | "lca", (_ :: _ :: _ as species) ->
      let nodes = List.map (resolve stored) species in
      let l = Stored_tree.lca_set stored nodes in
      Printf.sprintf "%s (depth %d, distance from root %g)" (node_label stored l)
        (Stored_tree.depth stored l)
        (Stored_tree.view stored l).Node_view.root_dist
  | "lca", _ -> bad "lca needs at least two species"
  | "clade", (_ :: _ as species) ->
      let nodes = List.map (resolve stored) species in
      let root = Clade.root_of stored nodes in
      let size = Clade.size stored nodes in
      if size <= 20 then
        Printf.sprintf "root %s, %d species: %s" (node_label stored root) size
          (names_of stored (Clade.leaf_ids stored nodes))
      else Printf.sprintf "root %s, %d species" (node_label stored root) size
  | "clade", [] -> bad "clade needs at least one species"
  | "distance", [ a; b ] ->
      Printf.sprintf "%g"
        (Stored_tree.path_distance stored (resolve stored a) (resolve stored b))
  | "distance", _ -> bad "distance needs exactly two species"
  | "path", [ a; b ] ->
      names_of stored
        (Stored_tree.path_nodes stored (resolve stored a) (resolve stored b))
  | "path", _ -> bad "path needs exactly two species"
  | "depth", [ a ] -> string_of_int (Stored_tree.depth stored (resolve stored a))
  | "depth", _ -> bad "depth needs exactly one species"
  | "parent", [ a ] -> (
      match Stored_tree.parent stored (resolve stored a) with
      | -1 -> "(root has no parent)"
      | p -> node_label stored p)
  | "parent", _ -> bad "parent needs exactly one species"
  | "children", [ a ] -> (
      match Stored_tree.children stored (resolve stored a) with
      | [] -> "(leaf)"
      | kids -> names_of stored kids)
  | "children", _ -> bad "children needs exactly one node"
  | "project", (_ :: _ as species) ->
      let nodes = List.map (resolve stored) species in
      Newick.to_string (Projection.project stored nodes)
  | "project", [] -> bad "project needs at least one species"
  | "sample", [ k ] ->
      let k = int_of_float (number k) in
      names_of stored (Sampling.uniform stored ~rng ~k)
  | "sample", [ k; t ] ->
      let k = int_of_float (number k) in
      names_of stored (Sampling.with_time stored ~rng ~k ~time:(number t))
  | "sample", _ -> bad "sample needs (k) or (k, time)"
  | "frontier", [ t ] ->
      let nodes = Sampling.frontier_at stored ~time:(number t) in
      Printf.sprintf "%d nodes: %s" (List.length nodes) (names_of stored nodes)
  | "frontier", _ -> bad "frontier needs exactly one time"
  | "match", [ p ] ->
      let pattern = Newick.parse (string_arg p) in
      let r = Pattern.match_pattern stored pattern in
      Printf.sprintf "matched=%b rf=%d" r.Pattern.matched r.Pattern.rf_distance
  | "match", _ -> bad "match needs exactly one quoted Newick pattern"
  | "seq", [ a ] -> (
      let name =
        match a with
        | Name s -> s
        | Number _ -> bad "seq needs a species name"
      in
      match Loader.species_sequence repo stored name with
      | None -> Printf.sprintf "(no sequence stored for %s)" name
      | Some s when String.length s <= 60 -> s
      | Some s -> Printf.sprintf "%s… (%d sites)" (String.sub s 0 60) (String.length s))
  | "seq", _ -> bad "seq needs exactly one species"
  | "info", [] ->
      Printf.sprintf "tree %S: %d nodes, %d species, f=%d, %d layers"
        (Stored_tree.name stored)
        (Stored_tree.node_count stored)
        (Stored_tree.leaf_count stored) (Stored_tree.f stored)
        (Stored_tree.layer_count stored)
  | "info", _ -> bad "info takes no arguments"
  | "overview", ([] | [ _ ]) ->
      let depth = match args with [ k ] -> int_of_float (number k) | _ -> 1 in
      if depth < 0 then bad "overview depth must be >= 0";
      let layer, entries = Summary.overview stored ~depth in
      let cluster (e : Summary.entry) =
        Printf.sprintf "%s[nodes=%d leaves=%d height=%d blen=%g]"
          (if e.name = "" then Printf.sprintf "#%d" e.root else e.name)
          e.nodes e.leaves e.height e.blen
      in
      let shown = List.filteri (fun i _ -> i < 12) entries in
      let suffix = if List.length entries > 12 then ", …" else "" in
      Printf.sprintf "layer %d, %d clusters: %s%s" layer (List.length entries)
        (String.concat ", " (List.map cluster shown))
        suffix
  | "overview", _ -> bad "overview needs () or (depth)"
  | fn, _ -> bad "unknown function %S (see 'crimson query --help')" fn

(* ----------------------------- Planning ----------------------------- *)

(* [plan] mirrors [execute]'s dispatch — same arity checks, same error
   messages — but describes the access path instead of walking it. Keep
   the two matches in sync when adding a query function. *)
let plan stored { fn; args } =
  let nargs = List.length args in
  let layers = Stored_tree.layer_count stored in
  let step fmt = Printf.ksprintf (fun s -> s) fmt in
  let resolve_step k =
    step "resolve %d name(s): 1 B+tree find each in nodes.by_name (node ids pass through)"
      k
  in
  let header = step "query %s/%d on tree %S" fn nargs (Stored_tree.name stored) in
  let body =
    match (fn, args) with
    | "lca", (_ :: _ :: _ as species) ->
        [
          resolve_step (List.length species);
          step "layered LCA: fold pairwise over %d nodes" (List.length species);
          step
            "each pair climbs the layer decomposition: O(layers) = O(%d) layer rows \
             and sub-roots, each a miss read through the run directory"
            layers;
          step "node views served by the node-view LRU cache (a miss reads its own row)";
        ]
    | "lca", _ -> bad "lca needs at least two species"
    | "clade", (_ :: _ as species) ->
        [
          resolve_step (List.length species);
          step "clade root: layered LCA over %d nodes, O(%d) layer rows per pair"
            (List.length species) layers;
          step "clade size: the root's leaf interval, 1 node view";
          step "clade leaves: stream the id range [root, subtree_end root] through the \
                run directory, keeping rows with subtree_end = id";
        ]
    | "clade", [] -> bad "clade needs at least one species"
    | "distance", [ _; _ ] ->
        [
          resolve_step 2;
          step "LCA via the layer decomposition: O(%d) layer rows" layers;
          step "distance = root_dist(a) + root_dist(b) - 2*root_dist(lca): 3 node views";
        ]
    | "distance", _ -> bad "distance needs exactly two species"
    | "path", [ _; _ ] ->
        [
          resolve_step 2;
          step "LCA via the layer decomposition: O(%d) layer rows" layers;
          step "collect both climbs to the LCA: O(depth) node views, cache-batched";
        ]
    | "path", _ -> bad "path needs exactly two species"
    | "depth", [ _ ] ->
        [ resolve_step 1; step "climb parent pointers to the root: O(depth) node views" ]
    | "depth", _ -> bad "depth needs exactly one species"
    | "parent", [ _ ] -> [ resolve_step 1; step "1 node view (parent field)" ]
    | "parent", _ -> bad "parent needs exactly one species"
    | "children", [ _ ] ->
        [
          resolve_step 1;
          step "first child at id + 1, each next sibling at subtree_end + 1: one node \
                view per child, no index scan";
        ]
    | "children", _ -> bad "children needs exactly one node"
    | "project", (_ :: _ as species) ->
        [
          resolve_step (List.length species);
          step "pairwise LCAs of %d nodes: O(%d) layer rows per pair"
            (List.length species) layers;
          step "build the induced subtree in memory and render Newick (no writes)";
        ]
    | "project", [] -> bad "project needs at least one species"
    | "sample", ([ _ ] | [ _; _ ]) ->
        [
          (if nargs = 2 then
             step "time-sliced: the frontier at the cut time (kept by the handle after \
                   its first skip-scan at that time), then k/|frontier| draws per \
                   frontier leaf interval"
           else step "uniform draw of k leaf ordinals");
          step "each ordinal: binary search of the run directory on leaf_lo, then a \
                select in that run's leaf map (filled from the run's page on first \
                use); names resolved through node views";
        ]
    | "sample", _ -> bad "sample needs (k) or (k, time)"
    | "frontier", [ _ ] ->
        [
          step "the handle keeps its last frontier by exact time: a repeated time \
                reads no row";
          step "otherwise a preorder skip-scan of the node rows from the root, located \
                through the run directory and read past the view cache";
          step "a node past the time joins the frontier and the scan jumps to its \
                subtree_end + 1: reads the cap above the frontier plus the frontier rows";
        ]
    | "frontier", _ -> bad "frontier needs exactly one time"
    | "match", [ _ ] ->
        [
          step "parse the Newick pattern (in memory)";
          step "resolve pattern leaves, project the induced subtree, compare shapes";
          step "RF distance over the two splits sets";
        ]
    | "match", _ -> bad "match needs exactly one quoted Newick pattern"
    | "seq", [ _ ] ->
        [
          resolve_step 1;
          step "sequence chunks: prefix scan of species.by_chunk, decode + concatenate";
        ]
    | "seq", _ -> bad "seq needs exactly one species"
    | "info", [] -> [ step "catalog metadata only: 1 row from trees.by_id" ]
    | "info", _ -> bad "info takes no arguments"
    | "overview", ([] | [ _ ]) ->
        [
          step "pick the serving layer from catalog metadata (%d layers)" layers;
          step
            "scan of the summaries rows of one (tree, layer), through the run \
             directory, each page pinned once: O(clusters) rows, independent of tree size";
        ]
    | "overview", _ -> bad "overview needs () or (depth)"
    | fn, _ -> bad "unknown function %S (see 'crimson query --help')" fn
  in
  header :: body

(* The query service feeds these functions untrusted network input, so
   no failure on arbitrary bytes may escape as an exception. The named
   cases keep their friendly messages; anything else degrades to a
   generic error. Out_of_memory stays fatal: swallowing it would turn
   exhaustion into a silent wrong answer. *)
let trap f =
  match f () with
  | v -> Ok v
  | exception Bad_query msg -> Error msg
  | exception Sampling.Invalid_sample msg -> Error msg
  | exception Projection.Projection_error msg -> Error msg
  | exception Pattern.Pattern_error msg -> Error msg
  | exception Loader.Load_error msg -> Error msg
  | exception Newick.Parse_error { pos; message } ->
      Error (Printf.sprintf "Newick error at offset %d: %s" pos message)
  | exception Stored_tree.Unknown_node n -> Error (Printf.sprintf "unknown node %d" n)
  (* Typed storage errors (read-only refusals above all) carry a clear
     message of their own — don't bury it under "internal error". *)
  | exception Crimson_storage.Error.Error e ->
      Error (Crimson_storage.Error.to_string e)
  | exception Stack_overflow -> Error "query too deeply nested"
  | exception Out_of_memory -> raise Out_of_memory
  (* A request deadline expiring mid-query must unwind to the server's
     [Deadline.with_timeout] scope, not degrade into an "internal
     error" reply. *)
  | exception Crimson_obs.Deadline.Expired -> raise Crimson_obs.Deadline.Expired
  | exception e -> Error (Printf.sprintf "internal error: %s" (Printexc.to_string e))

module Profile = Crimson_obs.Profile

let measured ~profiled ?rng ?(record = true) repo stored text =
  let rng = match rng with Some r -> r | None -> Prng.create 0 in
  let body () =
    Crimson_obs.Span.with_ ~name:"core.query" (fun () ->
        let call = Profile.stage "parse" (fun () -> parse_query text) in
        Crimson_obs.Span.attr "fn" (Crimson_obs.Json.Str call.fn);
        Crimson_obs.Span.attr "args"
          (Crimson_obs.Json.Num (float_of_int (List.length call.args)));
        let result = Profile.stage "execute" (fun () -> execute ~rng repo stored call) in
        Crimson_obs.Span.attr "result_chars"
          (Crimson_obs.Json.Num (float_of_int (String.length result)));
        result)
  in
  match
    trap (fun () ->
        if profiled then
          let result, report = Profile.profile body in
          (result, report.total.elapsed_ms, Profile.pages_touched report, Some report)
        else
          let result, elapsed_ms, pages = Profile.measure body in
          (result, elapsed_ms, pages, None))
  with
  | Error _ as e -> e
  | Ok (result, elapsed_ms, pages, report) -> (
      (* Recording is part of the mutating path: on a read-only
         repository it must refuse with the typed error's message, not
         raise past a successful execution. *)
      let cost =
        Option.map (fun r -> Crimson_obs.Json.to_string (Profile.cost_summary r)) report
      in
      match
        if record then
          ignore (Repo.record_query repo ~elapsed_ms ~pages ?cost ~text ~result)
      with
      | () -> Ok ({ text; result }, elapsed_ms, pages, report)
      | exception Crimson_storage.Error.Error e ->
          Error (Crimson_storage.Error.to_string e))

let run ?rng ?record repo stored text =
  Result.map
    (fun (o, _, _, _) -> o)
    (measured ~profiled:false ?rng ?record repo stored text)

let profile ?rng ?record repo stored text =
  Result.map
    (fun (o, _, _, report) -> (o, Option.get report))
    (measured ~profiled:true ?rng ?record repo stored text)

let explain stored text = trap (fun () -> plan stored (parse_query text))

let help =
  {|Queries are function calls over species names:
  lca(Lla, Spy)              least common ancestor
  clade(Lla, Syn)            minimal spanning clade
  distance(Bha, Syn)         path length between two species
  path(Lla, Bsu)             node path between two species
  depth(Spy)                 node depth
  parent(Spy), children(x)   navigation
  project(Bha, Lla, Syn)     induced subtree, as Newick
  sample(4)                  uniform random sample
  sample(4, 1.0)             sample w.r.t. evolutionary time 1.0
  frontier(1.0)              minimal nodes beyond time 1.0
  match('(Bha,(Lla,Syn));')  tree pattern match
  seq(Bha)                   stored sequence (preview)
  info()                     tree metadata
  overview(1)                summary clusters at resolution 1
Names may be bare or 'single-quoted'; #123 addresses a node by id.|}
