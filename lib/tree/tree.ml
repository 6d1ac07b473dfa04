type node = int

let nil = -1

type t = {
  parent : int array;
  first_child : int array;
  last_child : int array;
  next_sibling : int array;
  names : string option array;
  blen : float array;
  root : node;
}

module Builder = struct
  module Vec = Crimson_util.Vec

  type tree = t

  type t = {
    parent : int Vec.t;
    first_child : int Vec.t;
    last_child : int Vec.t;
    next_sibling : int Vec.t;
    names : string option Vec.t;
    blen : float Vec.t;
    mutable root : node;
    mutable finished : bool;
  }

  let create ?(capacity = 16) () =
    {
      parent = Vec.create ~capacity ();
      first_child = Vec.create ~capacity ();
      last_child = Vec.create ~capacity ();
      next_sibling = Vec.create ~capacity ();
      names = Vec.create ~capacity ();
      blen = Vec.create ~capacity ();
      root = nil;
      finished = false;
    }

  let node_count b = Vec.length b.parent

  let alloc b ~name ~parent ~branch_length =
    let id = Vec.length b.parent in
    Vec.push b.parent parent;
    Vec.push b.first_child nil;
    Vec.push b.last_child nil;
    Vec.push b.next_sibling nil;
    Vec.push b.names name;
    Vec.push b.blen branch_length;
    id

  let add_root ?name b =
    if b.root <> nil then invalid_arg "Tree.Builder.add_root: root already exists";
    let id = alloc b ~name ~parent:nil ~branch_length:0.0 in
    b.root <- id;
    id

  let add_child ?name ?(branch_length = 1.0) b ~parent =
    if parent < 0 || parent >= node_count b then
      invalid_arg "Tree.Builder.add_child: parent not in tree";
    if not (Float.is_finite branch_length) || branch_length < 0.0 then
      invalid_arg "Tree.Builder.add_child: branch length must be finite and >= 0";
    let id = alloc b ~name ~parent ~branch_length in
    let prev_last = Vec.get b.last_child parent in
    if prev_last = nil then Vec.set b.first_child parent id
    else Vec.set b.next_sibling prev_last id;
    Vec.set b.last_child parent id;
    id

  let finish b : tree =
    if b.finished then invalid_arg "Tree.Builder.finish: already finished";
    if b.root = nil then invalid_arg "Tree.Builder.finish: no root";
    b.finished <- true;
    {
      parent = Vec.to_array b.parent;
      first_child = Vec.to_array b.first_child;
      last_child = Vec.to_array b.last_child;
      next_sibling = Vec.to_array b.next_sibling;
      names = Vec.to_array b.names;
      blen = Vec.to_array b.blen;
      root = b.root;
    }
end

let node_count t = Array.length t.parent
let root t = t.root

let check t n op =
  if n < 0 || n >= node_count t then
    invalid_arg (Printf.sprintf "Tree.%s: node %d out of range [0,%d)" op n (node_count t))

let parent t n =
  check t n "parent";
  t.parent.(n)

let children t n =
  check t n "children";
  let rec collect c acc =
    if c = nil then List.rev acc else collect t.next_sibling.(c) (c :: acc)
  in
  collect t.first_child.(n) []

let out_degree t n =
  check t n "out_degree";
  let rec count c acc = if c = nil then acc else count t.next_sibling.(c) (acc + 1) in
  count t.first_child.(n) 0

let is_leaf t n =
  check t n "is_leaf";
  t.first_child.(n) = nil

let name t n =
  check t n "name";
  t.names.(n)

let branch_length t n =
  check t n "branch_length";
  t.blen.(n)

let mem t n = n >= 0 && n < node_count t

let iter_children t n f =
  check t n "iter_children";
  let c = ref t.first_child.(n) in
  while !c <> nil do
    f !c;
    c := t.next_sibling.(!c)
  done

(* Preorder without recursion: follow first-child links, falling back to the
   next sibling of the nearest ancestor that has one. *)
let preorder t =
  let n = node_count t in
  let order = Array.make n 0 in
  let idx = ref 0 in
  let cur = ref t.root in
  while !cur <> nil do
    order.(!idx) <- !cur;
    incr idx;
    if t.first_child.(!cur) <> nil then cur := t.first_child.(!cur)
    else begin
      (* Climb until a next sibling exists or we pass the root. *)
      let k = ref !cur in
      while !k <> nil && t.next_sibling.(!k) = nil do
        k := t.parent.(!k)
      done;
      cur := if !k = nil then nil else t.next_sibling.(!k)
    end
  done;
  order

let preorder_rank t =
  let order = preorder t in
  let rank = Array.make (node_count t) 0 in
  Array.iteri (fun i n -> rank.(n) <- i) order;
  rank

let postorder t =
  (* Reverse preorder with children visited right-to-left is a postorder;
     we instead compute it directly from preorder by emitting nodes when
     their subtrees close. Simpler: process preorder in reverse with a
     stable trick — a node appears after all its descendants in postorder,
     and preorder lists a node before its descendants, so reversing
     preorder of the mirrored tree works. We avoid mirroring by an explicit
     stack. *)
  let n = node_count t in
  let order = Array.make n 0 in
  let idx = ref 0 in
  let stack = Crimson_util.Vec.create () in
  (* Each stack entry is a node paired with whether its children were
     expanded already, encoded as node lor (1 lsl 61) once expanded. *)
  let expanded_bit = 1 lsl 61 in
  Crimson_util.Vec.push stack t.root;
  while not (Crimson_util.Vec.is_empty stack) do
    let top = Crimson_util.Vec.pop stack in
    if top land expanded_bit <> 0 then begin
      order.(!idx) <- top lxor expanded_bit;
      incr idx
    end
    else begin
      Crimson_util.Vec.push stack (top lor expanded_bit);
      (* Push children reversed so the leftmost is processed first. *)
      let kids = children t top in
      List.iter (fun c -> Crimson_util.Vec.push stack c) (List.rev kids)
    end
  done;
  order

let depths t =
  let d = Array.make (node_count t) 0 in
  let order = preorder t in
  Array.iter
    (fun n -> if n <> t.root then d.(n) <- d.(t.parent.(n)) + 1)
    order;
  d

let depth t n =
  check t n "depth";
  let rec up n acc = if t.parent.(n) = nil then acc else up t.parent.(n) (acc + 1) in
  up n 0

let height t = Array.fold_left max 0 (depths t)

let root_distance t =
  let d = Array.make (node_count t) 0.0 in
  let order = preorder t in
  Array.iter
    (fun n -> if n <> t.root then d.(n) <- d.(t.parent.(n)) +. t.blen.(n))
    order;
  d

let leaves t =
  let order = preorder t in
  let out = Crimson_util.Vec.create () in
  Array.iter (fun n -> if t.first_child.(n) = nil then Crimson_util.Vec.push out n) order;
  Crimson_util.Vec.to_array out

let leaf_count t =
  let acc = ref 0 in
  for n = 0 to node_count t - 1 do
    if t.first_child.(n) = nil then incr acc
  done;
  !acc

let subtree_sizes t =
  let sizes = Array.make (node_count t) 1 in
  let order = postorder t in
  Array.iter
    (fun n -> iter_children t n (fun c -> sizes.(n) <- sizes.(n) + sizes.(c)))
    order;
  sizes


let find_by_name t target =
  let order = preorder t in
  let found = ref None in
  (try
     Array.iter
       (fun n ->
         match t.names.(n) with
         | Some s when String.equal s target ->
             found := Some n;
             raise Exit
         | Some _ | None -> ())
       order
   with Exit -> ());
  !found

let leaf_by_name t target =
  let order = preorder t in
  let found = ref None in
  (try
     Array.iter
       (fun n ->
         if t.first_child.(n) = nil then
           match t.names.(n) with
           | Some s when String.equal s target ->
               found := Some n;
               raise Exit
           | Some _ | None -> ())
       order
   with Exit -> ());
  !found

let float_close tolerance a b = Float.abs (a -. b) <= tolerance

let equal_ordered ?(tolerance = 1e-9) a b =
  let rec eq na nb =
    Option.equal String.equal a.names.(na) b.names.(nb)
    && (na = a.root || float_close tolerance a.blen.(na) b.blen.(nb))
    && eq_kids a.first_child.(na) b.first_child.(nb)
  and eq_kids ca cb =
    match (ca = nil, cb = nil) with
    | true, true -> true
    | true, false | false, true -> false
    | false, false -> eq ca cb && eq_kids a.next_sibling.(ca) b.next_sibling.(cb)
  in
  node_count a = node_count b && eq a.root b.root

(* Canonical form for unordered comparison: serialise each subtree with its
   children's canonical strings sorted, so isomorphic trees (under child
   reordering) produce identical strings. Branch lengths are rounded to a
   tolerance grid when [weighted]. *)
let canonical_form ~tolerance ~weighted t =
  let quantize x = Printf.sprintf "%.0f" (x /. tolerance) in
  let canon = Array.make (node_count t) "" in
  let order = postorder t in
  Array.iter
    (fun n ->
      let label = match t.names.(n) with Some s -> s | None -> "" in
      let len = if weighted && n <> t.root then quantize t.blen.(n) else "" in
      let kid_forms = List.map (fun c -> canon.(c)) (children t n) in
      let kid_forms = List.sort String.compare kid_forms in
      canon.(n) <-
        Printf.sprintf "(%s)%s:%s" (String.concat "," kid_forms) label len)
    order;
  canon.(t.root)

let equal_unordered ?(tolerance = 1e-9) ?(weighted = true) a b =
  node_count a = node_count b
  && String.equal
       (canonical_form ~tolerance ~weighted a)
       (canonical_form ~tolerance ~weighted b)

type stats = {
  nodes : int;
  leaves : int;
  height : int;
  mean_leaf_depth : float;
  max_out_degree : int;
}

let stats t =
  let d = depths t in
  let leaf_nodes = leaves t in
  let mean_leaf_depth =
    if Array.length leaf_nodes = 0 then 0.0
    else
      let sum = Array.fold_left (fun acc n -> acc + d.(n)) 0 leaf_nodes in
      float_of_int sum /. float_of_int (Array.length leaf_nodes)
  in
  let max_deg = ref 0 in
  for n = 0 to node_count t - 1 do
    max_deg := max !max_deg (out_degree t n)
  done;
  {
    nodes = node_count t;
    leaves = Array.length leaf_nodes;
    height = Array.fold_left max 0 d;
    mean_leaf_depth;
    max_out_degree = !max_deg;
  }

let pp_stats ppf s =
  Format.fprintf ppf "nodes=%d leaves=%d height=%d mean_leaf_depth=%.1f max_out_degree=%d"
    s.nodes s.leaves s.height s.mean_leaf_depth s.max_out_degree

let validate t =
  let n = node_count t in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if n = 0 then fail "empty tree"
  else if t.root < 0 || t.root >= n then fail "root out of range"
  else if t.parent.(t.root) <> nil then fail "root has a parent"
  else begin
    let errors = ref None in
    let record e = if !errors = None then errors := Some e in
    (* Every child link must agree with the parent array. *)
    for p = 0 to n - 1 do
      iter_children t p (fun c ->
          if t.parent.(c) <> p then
            record (Printf.sprintf "node %d listed as child of %d but parent=%d" c p t.parent.(c)))
    done;
    (* Every non-root node must be reachable: preorder covers all nodes. *)
    let seen = Array.make n false in
    let order = preorder t in
    Array.iter (fun x -> seen.(x) <- true) order;
    for i = 0 to n - 1 do
      if not seen.(i) then record (Printf.sprintf "node %d unreachable from root" i)
    done;
    for i = 0 to n - 1 do
      if i <> t.root && (t.parent.(i) < 0 || t.parent.(i) >= n) then
        record (Printf.sprintf "node %d has invalid parent %d" i t.parent.(i));
      if not (Float.is_finite t.blen.(i)) || t.blen.(i) < 0.0 then
        record (Printf.sprintf "node %d has invalid branch length" i)
    done;
    match !errors with None -> Ok () | Some e -> Error e
  end
