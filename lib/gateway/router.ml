module Json = Crimson_obs.Json

(* Map an HTTP request onto the transport-agnostic request type. The
   router only decides *what* is being asked; handlers live in the
   worker core, shared with the line protocol. *)

let max_per_page = 500
let default_per_page = 20

let bad fmt = Printf.ksprintf (fun m -> Error (Response.Bad_request, m)) fmt

let int_param r name ~default ~min ~max:max_v =
  match Http.query_param r name with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min && n <= max_v -> Ok n
      | Some _ | None ->
          bad "query parameter %s must be an integer in [%d, %d]" name min max_v)

let float_param r name =
  match Http.query_param r name with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> bad "query parameter %s must be a number" name)

(* format=newick / format=json wins; otherwise an Accept header asking
   for text/x-newick selects Newick; JSON is the default. *)
let negotiated r =
  match Http.query_param r "format" with
  | Some "newick" -> Ok Request.Newick
  | Some "json" -> Ok Request.Json
  | Some other -> Error (Response.Bad_request, Printf.sprintf "unknown format %S (expected json or newick)" other)
  | None -> (
      match Http.header r "accept" with
      | Some accept
        when String.length accept > 0
             && (let lower = String.lowercase_ascii accept in
                 let has sub =
                   let n = String.length lower and m = String.length sub in
                   let rec go i =
                     i + m <= n && (String.sub lower i m = sub || go (i + 1))
                   in
                   go 0
                 in
                 has "text/x-newick") ->
          Ok Request.Newick
      | _ -> Ok Request.Json)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* One route: its method, its path pattern (a ":name" segment binds any
   segment), the query parameters it documents, its doc line, and the
   builder of its request from the HTTP request and the bound segments.
   [route] matches this list and [doc_routes] renders it. *)
type route = {
  meth : string;
  pattern : string list;
  params : string list;
  doc : string;
  build : Http.request -> (string -> string) -> (Request.t, Response.code * string) result;
}

let on meth path ?(params = []) doc build =
  { meth; pattern = segments path; params; doc; build }

let routes =
  [
    on "GET" "/v1/doc" "this route listing" (fun _ _ -> Ok Request.Doc);
    on "GET" "/v1/trees" ~params:[ "page"; "per_page" ] "paginated tree catalog"
      (fun r _ ->
        (* Pages are 1-based, the web convention. *)
        Result.bind (int_param r "page" ~default:1 ~min:1 ~max:max_int) (fun page ->
            Result.map
              (fun per_page -> Request.List_trees { page; per_page })
              (int_param r "per_page" ~default:default_per_page ~min:1 ~max:max_per_page)));
    on "GET" "/v1/trees/:tree" "one tree's metadata (name or numeric id)" (fun _ seg ->
        Ok (Request.Tree_info (seg "tree")));
    on "GET" "/v1/trees/:tree/overview" ~params:[ "depth" ]
      "precomputed summary clusters at the given resolution" (fun r seg ->
        Result.map
          (fun depth -> Request.Overview { tree = seg "tree"; depth })
          (int_param r "depth" ~default:1 ~min:0 ~max:64));
    on "GET" "/v1/trees/:tree/clade" ~params:[ "species"; "format" ]
      "minimal clade spanning the species (format=newick for the induced subtree)"
      (fun r seg ->
        let species =
          Option.value ~default:"" (Http.query_param r "species")
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if species = [] then bad "clade needs ?species=a,b,c"
        else Ok (Request.Clade { tree = seg "tree"; species }));
    on "POST" "/v1/trees/:tree/query"
      "run a query-language call (request body is the query text)" (fun r seg ->
        match String.trim r.Http.body with
        | "" -> bad "query needs the query text as the request body"
        | text -> Ok (Request.Tree_query { tree = seg "tree"; text }));
    on "GET" "/v1/collections/:name/consensus" ~params:[ "threshold"; "format" ]
      "consensus tree of a collection (format=newick for bare Newick)" (fun r seg ->
        Result.map
          (fun threshold -> Request.Consensus_view { coll = seg "name"; threshold })
          (float_param r "threshold"));
  ]

(* The ":name" bindings of [pattern] over [path], if it matches. *)
let rec bind pattern path acc =
  match (pattern, path) with
  | [], [] -> Some acc
  | p :: ps, s :: ss when p.[0] = ':' ->
      bind ps ss ((String.sub p 1 (String.length p - 1), s) :: acc)
  | p :: ps, s :: ss when p = s -> bind ps ss acc
  | _ -> None

(* Format negotiation first, then 404, then 405 naming the route's
   method, then the builder's 400s. Each path pattern has one method. *)
let route (r : Http.request) =
  match negotiated r with
  | Error _ as e -> e
  | Ok fmt -> (
      let path = segments r.Http.path in
      match
        List.find_map
          (fun rt -> Option.map (fun bound -> (rt, bound)) (bind rt.pattern path []))
          routes
      with
      | None -> Error (Response.Not_found, "no such route (GET /v1/doc lists the API)")
      | Some (rt, _) when rt.meth <> r.Http.meth ->
          Error
            ( Response.Method_not_allowed,
              Printf.sprintf "%s not allowed here (expected %s)" r.Http.meth rt.meth )
      | Some (rt, bound) ->
          rt.build r (fun name -> List.assoc name bound)
          |> Result.map (fun req -> (req, fmt)))

(* GET /v1/doc: the machine-readable route list. *)
let doc_routes =
  Json.List
    (List.map
       (fun rt ->
         Json.Obj
           [
             ("method", Json.Str rt.meth);
             ("path", Json.Str ("/" ^ String.concat "/" rt.pattern));
             ("params", Json.List (List.map (fun p -> Json.Str p) rt.params));
             ("doc", Json.Str rt.doc);
           ])
       routes)
