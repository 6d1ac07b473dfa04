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

let parse text =
  match parse_query text with
  | call -> Ok call
  | exception Bad_query msg -> Error msg

(* --------------------------- Declarations --------------------------- *)

(* Each query function is declared once: its name, arity, usage error,
   cheat-sheet lines, how it runs and how EXPLAIN plans it. Execution,
   EXPLAIN, the arity check and [help] all read the declaration. *)
type 'env fn = {
  name : string;
  arity : int * int;  (* fewest and most arguments *)
  usage : string;
  help : (string * string) list;
  run : 'env -> arg list -> string;
  plan : 'env -> arg list -> string list;
}

type 'env table = {
  span : string;
  unknown : string -> string;
  fns : 'env fn list;
}

let mem table name = List.exists (fun f -> f.name = name) table.fns

(* The one arity check, shared by execution and EXPLAIN: a function
   runs or plans only with an argument count its declaration admits. *)
let lookup table { fn; args } =
  match List.find_opt (fun f -> f.name = fn) table.fns with
  | None -> raise (Bad_query (table.unknown fn))
  | Some f ->
      let n = List.length args in
      if n < fst f.arity || n > snd f.arity then raise (Bad_query f.usage);
      f

let cheat_sheet table =
  List.concat_map
    (fun f -> List.map (fun (call, what) -> Printf.sprintf "  %-26s %s" call what) f.help)
    table.fns
  |> String.concat "\n"

(* ---------------------------- Tree queries -------------------------- *)

type on_tree = {
  stored : Stored_tree.t;
  rng : Prng.t;
}

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

let step = Printf.sprintf

let resolve_step k =
  step
    "resolve %d name(s): each a search of the names run's directory in memory, 1 page pin \
     and at most 16 entries decoded (node ids pass through)"
    k

let layers e = Stored_tree.layer_count e.stored

(* A tree function's plan opens with the call and the tree it runs on. *)
let tree name ~arity ~usage ~help ~run ~plan =
  let plan e args =
    step "query %s/%d on tree %S" name (List.length args) (Stored_tree.name e.stored)
    :: plan e args
  in
  { name; arity; usage; help; run; plan }

let table =
  {
    span = "core.query";
    unknown = Printf.sprintf "unknown function %S (see 'crimson query --help')";
    fns =
      [
        tree "lca" ~arity:(2, max_int) ~usage:"lca needs at least two species"
          ~help:[ ("lca(Lla, Spy)", "least common ancestor") ]
          ~run:(fun { stored; _ } species ->
            let l = Stored_tree.lca_set stored (List.map (resolve stored) species) in
            Printf.sprintf "%s (depth %d, distance from root %g)" (node_label stored l)
              (Stored_tree.depth stored l)
              (Stored_tree.view stored l).Node_view.root_dist)
          ~plan:(fun e species ->
            let k = List.length species in
            [
              resolve_step k;
              step "layered LCA: fold pairwise over %d nodes" k;
              step
                "each pair climbs the layer decomposition: O(layers) = O(%d) layer rows \
                 and sub-roots, each a miss read through the run directory"
                (layers e);
              "node views served by the node-view LRU cache (a miss reads its own row)";
            ]);
        tree "clade" ~arity:(1, max_int) ~usage:"clade needs at least one species"
          ~help:[ ("clade(Lla, Syn)", "minimal spanning clade") ]
          ~run:(fun { stored; _ } species ->
            let nodes = List.map (resolve stored) species in
            let root = Clade.root_of stored nodes in
            let size = Clade.size stored nodes in
            if size <= 20 then
              Printf.sprintf "root %s, %d species: %s" (node_label stored root) size
                (names_of stored (Clade.leaf_ids stored nodes))
            else Printf.sprintf "root %s, %d species" (node_label stored root) size)
          ~plan:(fun e species ->
            let k = List.length species in
            [
              resolve_step k;
              step "clade root: layered LCA over %d nodes, O(%d) layer rows per pair" k
                (layers e);
              "clade size: the root's leaf interval, 1 node view";
              "clade leaves: stream the id range [root, subtree_end root] through the \
               run directory, keeping rows with subtree_end = id";
            ]);
        tree "distance" ~arity:(2, 2) ~usage:"distance needs exactly two species"
          ~help:[ ("distance(Bha, Syn)", "path length between two species") ]
          ~run:(fun { stored; _ } args ->
            Printf.sprintf "%g"
              (Stored_tree.path_distance stored
                 (resolve stored (List.hd args))
                 (resolve stored (List.nth args 1))))
          ~plan:(fun e _ ->
            [
              resolve_step 2;
              step "LCA via the layer decomposition: O(%d) layer rows" (layers e);
              "distance = root_dist(a) + root_dist(b) - 2*root_dist(lca): 3 node views";
            ]);
        tree "path" ~arity:(2, 2) ~usage:"path needs exactly two species"
          ~help:[ ("path(Lla, Bsu)", "node path between two species") ]
          ~run:(fun { stored; _ } args ->
            names_of stored
              (Stored_tree.path_nodes stored
                 (resolve stored (List.hd args))
                 (resolve stored (List.nth args 1))))
          ~plan:(fun e _ ->
            [
              resolve_step 2;
              step "LCA via the layer decomposition: O(%d) layer rows" (layers e);
              "collect both climbs to the LCA: O(depth) node views, cache-batched";
            ]);
        tree "depth" ~arity:(1, 1) ~usage:"depth needs exactly one species"
          ~help:[ ("depth(Spy)", "node depth") ]
          ~run:(fun { stored; _ } args ->
            string_of_int (Stored_tree.depth stored (resolve stored (List.hd args))))
          ~plan:(fun _ _ ->
            [ resolve_step 1; "climb parent pointers to the root: O(depth) node views" ]);
        tree "parent" ~arity:(1, 1) ~usage:"parent needs exactly one species"
          ~help:[ ("parent(Spy)", "parent node") ]
          ~run:(fun { stored; _ } args ->
            match Stored_tree.parent stored (resolve stored (List.hd args)) with
            | -1 -> "(root has no parent)"
            | p -> node_label stored p)
          ~plan:(fun _ _ -> [ resolve_step 1; "1 node view (parent field)" ]);
        tree "children" ~arity:(1, 1) ~usage:"children needs exactly one node"
          ~help:[ ("children(x)", "child nodes") ]
          ~run:(fun { stored; _ } args ->
            match Stored_tree.children stored (resolve stored (List.hd args)) with
            | [] -> "(leaf)"
            | kids -> names_of stored kids)
          ~plan:(fun _ _ ->
            [
              resolve_step 1;
              "first child at id + 1, each next sibling at subtree_end + 1: one node \
               view per child, no index scan";
            ]);
        tree "project" ~arity:(1, max_int) ~usage:"project needs at least one species"
          ~help:[ ("project(Bha, Lla, Syn)", "induced subtree, as Newick") ]
          ~run:(fun { stored; _ } species ->
            let nodes = List.map (resolve stored) species in
            Newick.to_string (Projection.project stored nodes))
          ~plan:(fun e species ->
            let k = List.length species in
            [
              resolve_step k;
              step "pairwise LCAs of %d nodes: O(%d) layer rows per pair" k (layers e);
              "build the induced subtree in memory and render Newick (no writes)";
            ]);
        tree "sample" ~arity:(1, 2) ~usage:"sample needs (k) or (k, time)"
          ~help:
            [
              ("sample(4)", "uniform random sample");
              ("sample(4, 1.0)", "sample w.r.t. evolutionary time 1.0");
            ]
          ~run:(fun { stored; rng } args ->
            let k = int_of_float (number (List.hd args)) in
            names_of stored
              (match args with
              | [ _; t ] -> Sampling.with_time stored ~rng ~k ~time:(number t)
              | _ -> Sampling.uniform stored ~rng ~k))
          ~plan:(fun _ args ->
            [
              (if List.length args = 2 then
                 "time-sliced: the frontier at the cut time (kept by the handle after \
                  its first skip-scan at that time), then k/|frontier| draws per \
                  frontier leaf interval"
               else "uniform draw of k leaf ordinals");
              "each ordinal: binary search of the run directory on leaf_lo, then a \
               select in that run's leaf map (filled from the run's page on first \
               use); names resolved through node views";
            ]);
        tree "frontier" ~arity:(1, 1) ~usage:"frontier needs exactly one time"
          ~help:[ ("frontier(1.0)", "minimal nodes beyond time 1.0") ]
          ~run:(fun { stored; _ } args ->
            let nodes = Sampling.frontier_at stored ~time:(number (List.hd args)) in
            Printf.sprintf "%d nodes: %s" (List.length nodes) (names_of stored nodes))
          ~plan:(fun _ _ ->
            [
              "the handle keeps its last frontier by exact time: a repeated time reads \
               no row";
              "otherwise a preorder skip-scan of the node rows from the root, located \
               through the run directory and read past the view cache";
              "a node past the time joins the frontier and the scan jumps to its \
               subtree_end + 1: reads the cap above the frontier plus the frontier rows";
            ]);
        tree "match" ~arity:(1, 1) ~usage:"match needs exactly one quoted Newick pattern"
          ~help:[ ("match('(Bha,(Lla,Syn));')", "tree pattern match") ]
          ~run:(fun { stored; _ } args ->
            let pattern = Newick.parse (string_arg (List.hd args)) in
            let r = Pattern.match_pattern stored pattern in
            Printf.sprintf "matched=%b rf=%d" r.Pattern.matched r.Pattern.rf_distance)
          ~plan:(fun _ _ ->
            [
              "parse the Newick pattern (in memory)";
              "resolve pattern leaves, project the induced subtree, compare shapes";
              "RF distance over the two splits sets";
            ]);
        tree "seq" ~arity:(1, 1) ~usage:"seq needs exactly one species"
          ~help:[ ("seq(Bha)", "stored sequence (preview)") ]
          ~run:(fun { stored; _ } args ->
            let name =
              match List.hd args with
              | Name s -> s
              | Number _ -> bad "seq needs a species name"
            in
            match Loader.species_sequence (Stored_tree.repo stored) stored name with
            | None -> Printf.sprintf "(no sequence stored for %s)" name
            | Some s when String.length s <= 60 -> s
            | Some s ->
                Printf.sprintf "%s… (%d sites)" (String.sub s 0 60) (String.length s))
          ~plan:(fun _ _ ->
            [
              "the tree's species run: its directory rows, read by one prefix scan of \
               node_runs.by_first on the repository handle's first lookup of the tree \
               and kept, then a search of their first (name, chunk) keys in memory";
              "a binary search of the rows of the run that can hold the name, its page \
               pinned once; then a scan from the name's first row, each page pinned \
               once, joining its chunks until the name changes";
            ]);
        tree "info" ~arity:(0, 0) ~usage:"info takes no arguments"
          ~help:[ ("info()", "tree metadata") ]
          ~run:(fun { stored; _ } _ ->
            Printf.sprintf "tree %S: %d nodes, %d species, f=%d, %d layers"
              (Stored_tree.name stored)
              (Stored_tree.node_count stored)
              (Stored_tree.leaf_count stored) (Stored_tree.f stored)
              (Stored_tree.layer_count stored))
          ~plan:(fun _ _ -> [ "catalog metadata only: 1 row from trees.by_id" ]);
        tree "overview" ~arity:(0, 1) ~usage:"overview needs () or (depth)"
          ~help:[ ("overview(1)", "summary clusters at resolution 1") ]
          ~run:(fun { stored; _ } args ->
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
              suffix)
          ~plan:(fun e _ ->
            [
              step "pick the serving layer from catalog metadata (%d layers)" (layers e);
              "scan of the summaries rows of one (tree, layer), through the run \
               directory, each page pinned once: O(clusters) rows, independent of tree \
               size";
            ]);
      ];
  }

(* ------------------------- The measured body ------------------------ *)

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
module Span = Crimson_obs.Span
module Json = Crimson_obs.Json

(* Every query of every table runs through this body: one span named by
   the table, the "parse" stage (the call resolved against its
   declaration) then the "execute" stage, one trap, one history row. *)
let measured_in table env ~profiled ?(record = true) repo ~text call =
  let body () =
    Span.with_ ~name:table.span (fun () ->
        let f = Profile.stage "parse" (fun () -> lookup table call) in
        Span.attr "fn" (Json.Str call.fn);
        Span.attr "args" (Json.Num (float_of_int (List.length call.args)));
        let result = Profile.stage "execute" (fun () -> f.run env call.args) in
        Span.attr "result_chars" (Json.Num (float_of_int (String.length result)));
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
      let cost = Option.map (fun r -> Json.to_string (Profile.cost_summary r)) report in
      match
        if record then
          ignore (Repo.record_query repo ~elapsed_ms ~pages ?cost ~text ~result)
      with
      | () -> Ok ({ text; result }, elapsed_ms, pages, report)
      | exception Crimson_storage.Error.Error e ->
          Error (Crimson_storage.Error.to_string e))

let explain_in table env call = trap (fun () -> (lookup table call).plan env call.args)

let measured ~profiled ?rng ?record repo stored text =
  let rng = match rng with Some r -> r | None -> Prng.create 0 in
  Result.bind (parse text)
    (measured_in table { stored; rng } ~profiled ?record repo ~text)

let run ?rng ?record repo stored text =
  Result.map
    (fun (o, _, _, _) -> o)
    (measured ~profiled:false ?rng ?record repo stored text)

let profile ?rng ?record repo stored text =
  Result.map
    (fun (o, _, _, report) -> (o, Option.get report))
    (measured ~profiled:true ?rng ?record repo stored text)

let explain stored text =
  Result.bind (parse text) (explain_in table { stored; rng = Prng.create 0 })

let help =
  "Queries are function calls over species names:\n" ^ cheat_sheet table
  ^ "\nNames may be bare or 'single-quoted'; #123 addresses a node by id."
