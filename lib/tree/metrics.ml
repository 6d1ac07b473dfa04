module Prng = Crimson_util.Prng

exception Incomparable of string

let incomparable fmt = Printf.ksprintf (fun s -> raise (Incomparable s)) fmt

(* Leaf name -> node id; checks naming invariants. *)
let leaf_map t =
  let map = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      match Tree.name t l with
      | None -> incomparable "unnamed leaf (node %d)" l
      | Some name ->
          if Hashtbl.mem map name then incomparable "duplicate leaf name %S" name;
          Hashtbl.add map name l)
    (Tree.leaves t);
  map

let check_same_leaves ma mb =
  if Hashtbl.length ma <> Hashtbl.length mb then
    incomparable "leaf sets differ in size (%d vs %d)" (Hashtbl.length ma)
      (Hashtbl.length mb);
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem mb name) then incomparable "leaf %S only in one tree" name)
    ma

(* ---------------------------- Ordinals ----------------------------- *)

(* A leaf's ordinal is its name's position in the sorted name set, so two
   trees that pass [check_same_leaves] number their leaves alike, and
   ordinal 0 is the smallest name. *)
let sorted_names m =
  Hashtbl.fold (fun k _ acc -> k :: acc) m [] |> List.sort String.compare |> Array.of_list

(* Node -> ordinal of its leaf; -1 for internal nodes. *)
let ordinals names m t =
  let ord = Array.make (Tree.node_count t) (-1) in
  Array.iteri (fun i name -> ord.(Hashtbl.find m name) <- i) names;
  ord

let prepare a b =
  let ma = leaf_map a and mb = leaf_map b in
  check_same_leaves ma mb;
  (ma, mb)

(* Leaf count and both trees' ordinals, after the leaf-set checks. *)
let compare_leaves a b =
  let ma, mb = prepare a b in
  let names = sorted_names ma in
  (Array.length names, ordinals names ma a, ordinals names mb b)

(* -------------------------- Clade bitmaps -------------------------- *)

(* One bitmap row per internal non-root node: the ordinals of the leaves
   below it, ordinal [i] at bit [i mod 8] of byte [i / 8], each row
   padded to whole 64-bit words. *)
type rows = {
  leaves : int;
  bits : Bytes.t;
  stride : int;  (** Bytes per row. *)
  row : int array;  (** Node -> row index; -1 for leaves and the root. *)
  size : int array;  (** Node -> number of leaves below it. *)
}

(* One postorder pass: a leaf sets its bit in its parent's row, and a
   finished row is ORed into its parent's a word at a time. *)
let build_rows t ~leaves ~ordinal =
  let n = Tree.node_count t in
  let root = Tree.root t in
  let row = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if v <> root && not (Tree.is_leaf t v) then begin
      row.(v) <- !count;
      incr count
    end
  done;
  let stride = 8 * ((leaves + 63) / 64) in
  let bits = Bytes.make (!count * stride) '\000' in
  let size = Array.make n 0 in
  Array.iter
    (fun v ->
      let p = Tree.parent t v in
      if Tree.is_leaf t v then begin
        let i = ordinal v in
        size.(v) <- 1;
        if p <> Tree.nil && row.(p) >= 0 then begin
          let at = (row.(p) * stride) + (i lsr 3) in
          Bytes.set_uint8 bits at (Bytes.get_uint8 bits at lor (1 lsl (i land 7)))
        end
      end
      else if row.(v) >= 0 && row.(p) >= 0 then begin
        let src = row.(v) * stride and dst = row.(p) * stride in
        for w = 0 to (stride / 8) - 1 do
          let o = 8 * w in
          Bytes.set_int64_le bits (dst + o)
            (Int64.logor (Bytes.get_int64_le bits (dst + o)) (Bytes.get_int64_le bits (src + o)))
        done
      end;
      if p <> Tree.nil then size.(p) <- size.(p) + size.(v))
    (Tree.postorder t);
  { leaves; bits; stride; row; size }

(* A row as a hashable key: its first ceil(leaves / 8) bytes. *)
let key r i = Bytes.sub_string r.bits (i * r.stride) ((r.leaves + 7) / 8)

let clade_set r =
  let keys = Hashtbl.create 64 in
  Array.iter (fun i -> if i >= 0 then Hashtbl.replace keys (key r i) ()) r.row;
  keys

(* A split is a clade, complemented when it holds ordinal 0, kept when
   both sides have at least two leaves. A rooted tree can induce one
   split from two nodes (a root with two children); the set dedupes. *)
let split_set r =
  let keys = Hashtbl.create 64 in
  let len = (r.leaves + 7) / 8 in
  let complement = Bytes.create r.stride in
  Array.iteri
    (fun v i ->
      if i >= 0 then begin
        let off = i * r.stride in
        let has_zero = Bytes.get_uint8 r.bits off land 1 = 1 in
        let side = if has_zero then r.leaves - r.size.(v) else r.size.(v) in
        if side >= 2 && side <= r.leaves - 2 then
          if not has_zero then Hashtbl.replace keys (key r i) ()
          else begin
            for w = 0 to (r.stride / 8) - 1 do
              let o = 8 * w in
              Bytes.set_int64_le complement o (Int64.lognot (Bytes.get_int64_le r.bits (off + o)))
            done;
            if r.leaves land 7 <> 0 then
              Bytes.set_uint8 complement (len - 1)
                (Bytes.get_uint8 complement (len - 1) land ((1 lsl (r.leaves land 7)) - 1));
            Hashtbl.replace keys (Bytes.sub_string complement 0 len) ()
          end
      end)
    r.row;
  keys

let clade_bitmaps t ~leaves ~ordinal =
  Hashtbl.fold (fun k () acc -> k :: acc) (clade_set (build_rows t ~leaves ~ordinal)) []

(* The names of a bitmap's ordinals, in ordinal (so name) order. *)
let names_of names bitmap =
  let acc = ref [] in
  for i = Array.length names - 1 downto 0 do
    if Char.code bitmap.[i lsr 3] land (1 lsl (i land 7)) <> 0 then acc := names.(i) :: !acc
  done;
  !acc

let one_tree t =
  let m = leaf_map t in
  let names = sorted_names m in
  (names, build_rows t ~leaves:(Array.length names) ~ordinal:(Array.get (ordinals names m t)))

let clades t =
  let names, r = one_tree t in
  Array.fold_left (fun acc i -> if i >= 0 then names_of names (key r i) :: acc else acc) [] r.row

let splits t =
  let names, r = one_tree t in
  Hashtbl.fold (fun k () acc -> names_of names k :: acc) (split_set r) [] |> List.sort compare

let symmetric_difference ka kb =
  let diff = ref 0 in
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem kb k) then incr diff) ka;
  Hashtbl.iter (fun k () -> if not (Hashtbl.mem ka k) then incr diff) kb;
  !diff

(* (symmetric difference, total size) of the two trees' sets; each
   tree's rows are built once. *)
let compare_sets set a b =
  let leaves, oa, ob = compare_leaves a b in
  let ka = set (build_rows a ~leaves ~ordinal:(Array.get oa))
  and kb = set (build_rows b ~leaves ~ordinal:(Array.get ob)) in
  (symmetric_difference ka kb, Hashtbl.length ka + Hashtbl.length kb)

let normalized (diff, total) =
  if total = 0 then 0.0 else float_of_int diff /. float_of_int total

let robinson_foulds a b = fst (compare_sets clade_set a b)
let robinson_foulds_normalized a b = normalized (compare_sets clade_set a b)

let shared_clades a b =
  let diff, total = compare_sets clade_set a b in
  (total - diff) / 2

let robinson_foulds_unrooted a b = fst (compare_sets split_set a b)
let robinson_foulds_unrooted_normalized a b = normalized (compare_sets split_set a b)

let robinson_foulds_unrooted_scores a b =
  let sets = compare_sets split_set a b in
  (fst sets, normalized sets)

(* ------------------------- Leaf-pair LCAs -------------------------- *)

(* The LCA of the leaves at preorder leaf positions p and p + 1 is the
   parent of the node after leaf p in preorder: that node is the next
   sibling of an ancestor-or-self of leaf p. The LCA of the leaves at
   positions p < q is the shallowest of those gap LCAs p .. q - 1, read
   in O(1) from a sparse table: [table.(k).(p)] is the shallowest of
   gaps p .. p + 2^k - 1. *)
type lca_index = {
  leaf : int array;  (** Ordinal -> leaf node. *)
  pos : int array;  (** Ordinal -> preorder leaf position. *)
  depth : int array;  (** Node -> edges from the root. *)
  log2 : int array;  (** [log2.(d)] = floor (log2 d). *)
  table : int array array;
}

let lca_index t ord =
  let pre = Tree.preorder t in
  let n = Array.length pre in
  let depth = Array.make n 0 in
  let m = ref 0 in
  Array.iter
    (fun v ->
      let p = Tree.parent t v in
      if p <> Tree.nil then depth.(v) <- depth.(p) + 1;
      if ord.(v) >= 0 then incr m)
    pre;
  let m = !m in
  let leaf = Array.make m 0 and pos = Array.make m 0 in
  let gaps = Array.make (m - 1) 0 in
  let p = ref 0 in
  Array.iteri
    (fun at v ->
      let o = ord.(v) in
      if o >= 0 then begin
        leaf.(o) <- v;
        pos.(o) <- !p;
        if !p < m - 1 then gaps.(!p) <- Tree.parent t pre.(at + 1);
        incr p
      end)
    pre;
  let shallower a b = if depth.(a) <= depth.(b) then a else b in
  let levels = ref [ gaps ] and k = ref 1 in
  while 1 lsl !k <= m - 1 do
    let prev = List.hd !levels and half = 1 lsl (!k - 1) in
    levels :=
      Array.init (m - (1 lsl !k)) (fun p -> shallower prev.(p) prev.(p + half)) :: !levels;
    incr k
  done;
  let log2 = Array.make (Int.max m 2) 0 in
  for d = 2 to m - 1 do
    log2.(d) <- log2.(d / 2) + 1
  done;
  { leaf; pos; depth; log2; table = Array.of_list (List.rev !levels) }

(* LCA of two distinct ordinals. *)
let lca ix x y =
  let p = ix.pos.(x) and q = ix.pos.(y) in
  let lo = Int.min p q and hi = Int.max p q in
  let k = ix.log2.(hi - lo) in
  let a = ix.table.(k).(lo) and b = ix.table.(k).(hi - (1 lsl k)) in
  if ix.depth.(a) <= ix.depth.(b) then a else b

(* Rooted triplet topology of ordinals (x, y, z): 0 when x,y are the
   cherry, 1 when x,z are, 2 when y,z are, 3 when unresolved (all three
   LCAs equal). *)
let triplet_topology ix x y z =
  let dxy = ix.depth.(lca ix x y)
  and dxz = ix.depth.(lca ix x z)
  and dyz = ix.depth.(lca ix y z) in
  if dxy > dxz && dxy > dyz then 0
  else if dxz > dxy && dxz > dyz then 1
  else if dyz > dxy && dyz > dxz then 2
  else 3

let triplet_distance ?(samples = 2000) ~rng a b =
  let n, oa, ob = compare_leaves a b in
  if n < 3 then 0.0
  else begin
    let ia = lca_index a oa and ib = lca_index b ob in
    let disagreements = ref 0 in
    let total = ref 0 in
    let test i j k =
      incr total;
      if triplet_topology ia i j k <> triplet_topology ib i j k then incr disagreements
    in
    if n <= 25 then
      for i = 0 to n - 3 do
        for j = i + 1 to n - 2 do
          for k = j + 1 to n - 1 do
            test i j k
          done
        done
      done
    else
      for _ = 1 to samples do
        let pick = Prng.sample_without_replacement rng ~k:3 ~n in
        test pick.(0) pick.(1) pick.(2)
      done;
    if !total = 0 then 0.0 else float_of_int !disagreements /. float_of_int !total
  end

(* Map each edge (identified by the sorted leaf-name set below it, leaf
   edges included) to its branch length. *)
let edge_length_map t =
  ignore (leaf_map t);
  let n = Tree.node_count t in
  let below = Array.make n [] in
  let map = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if Tree.is_leaf t v then below.(v) <- [ Option.get (Tree.name t v) ]
      else
        Tree.iter_children t v (fun c -> below.(v) <- List.rev_append below.(c) below.(v));
      if v <> Tree.root t then begin
        let key = String.concat "\x00" (List.sort String.compare below.(v)) in
        (* Multifurcation duplicates cannot arise (distinct leaf sets);
           unary chains can — sum them, matching edge contraction. *)
        let existing = Option.value ~default:0.0 (Hashtbl.find_opt map key) in
        Hashtbl.replace map key (existing +. Tree.branch_length t v)
      end)
    (Tree.postorder t);
  map

let branch_score_distance a b =
  ignore (prepare a b);
  let ma = edge_length_map a and mb = edge_length_map b in
  let acc = ref 0.0 in
  Hashtbl.iter
    (fun key la ->
      let lb = Option.value ~default:0.0 (Hashtbl.find_opt mb key) in
      acc := !acc +. ((la -. lb) *. (la -. lb)))
    ma;
  Hashtbl.iter
    (fun key lb ->
      if not (Hashtbl.mem ma key) then acc := !acc +. (lb *. lb))
    mb;
  sqrt !acc

let path_length_distance a b =
  let n, oa, ob = compare_leaves a b in
  if n < 2 then 0.0
  else begin
    let rda = Tree.root_distance a and rdb = Tree.root_distance b in
    let ia = lca_index a oa and ib = lca_index b ob in
    let dist ix rd x y =
      let lx = ix.leaf.(x) and ly = ix.leaf.(y) in
      rd.(lx) +. rd.(ly) -. (2.0 *. rd.(lca ix x y))
    in
    let total = ref 0.0 in
    let count = ref 0 in
    let consider x y =
      let d = dist ia rda x y -. dist ib rdb x y in
      total := !total +. (d *. d);
      incr count
    in
    if n <= 200 then
      for x = 0 to n - 2 do
        for y = x + 1 to n - 1 do
          consider x y
        done
      done
    else begin
      (* Deterministic subsample: stride pairs. *)
      let rng = Prng.create 1789 in
      for _ = 1 to 20_000 do
        let pick = Prng.sample_without_replacement rng ~k:2 ~n in
        consider pick.(0) pick.(1)
      done
    end;
    sqrt (!total /. float_of_int !count)
  end
