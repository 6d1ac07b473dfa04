module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops

type t = {
  names : string array;
  d : float array array;
}

exception Invalid_input of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_input s)) fmt

let of_fun ~names f =
  let n = Array.length names in
  let d = Array.init n (fun _ -> Array.make n 0.0) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = (f i j +. f j i) /. 2.0 in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  { names; d }

let size t = Array.length t.names
let get t i j = t.d.(i).(j)

let is_base = function 'A' | 'C' | 'G' | 'T' | 'a' | 'c' | 'g' | 't' -> true | _ -> false

let validate seqs =
  let n = List.length seqs in
  if n < 2 then invalid "need at least 2 sequences (got %d)" n;
  let seen = Hashtbl.create 16 in
  let len = ref (-1) in
  List.iter
    (fun (name, seq) ->
      if Hashtbl.mem seen name then invalid "duplicate taxon %S" name;
      Hashtbl.add seen name ();
      if !len = -1 then len := String.length seq
      else if String.length seq <> !len then
        invalid "taxon %S has length %d, expected %d" name (String.length seq) !len;
      String.iter (fun c -> if not (is_base c) then invalid "taxon %S has non-DNA character %C" name c) seq)
    seqs;
  if !len = 0 then invalid "sequences are empty";
  Array.of_list seqs

(* Site difference fractions of one pair of uppercased sequences:
   (transitions, transversions). *)
let pair_fractions a b =
  let len = String.length a in
  let transitions = ref 0 and transversions = ref 0 in
  let purine = function 'A' | 'G' -> true | _ -> false in
  for i = 0 to len - 1 do
    let x = a.[i] and y = b.[i] in
    if x <> y then
      if purine x = purine y then incr transitions else incr transversions
  done;
  let l = float_of_int len in
  (float_of_int !transitions /. l, float_of_int !transversions /. l)

(* Every pairwise distance model here is symmetric, so each unordered
   pair is computed once, on sequences uppercased once per taxon. *)
let of_pairs seqs model =
  let arr = validate seqs in
  let names = Array.map fst arr in
  let upper = Array.map (fun (_, s) -> String.uppercase_ascii s) arr in
  let n = Array.length arr in
  let d = Array.init n (fun _ -> Array.make n 0.0) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p, q = pair_fractions upper.(i) upper.(j) in
      let v = model p q in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  { names; d }

let saturation_ceiling = 5.0

let p_distance seqs = of_pairs seqs (fun p q -> p +. q)

let jc69 seqs =
  of_pairs seqs (fun p q ->
      let p = p +. q in
      if p >= 0.75 then saturation_ceiling
      else
        let v = -0.75 *. log (1.0 -. (4.0 *. p /. 3.0)) in
        Float.min v saturation_ceiling)

let k2p seqs =
  of_pairs seqs (fun p q ->
      let a = 1.0 -. (2.0 *. p) -. q in
      let b = 1.0 -. (2.0 *. q) in
      if a <= 0.0 || b <= 0.0 then saturation_ceiling
      else
        let v = (-0.5 *. log a) -. (0.25 *. log b) in
        Float.min v saturation_ceiling)

let of_tree tree =
  let leaves = Tree.leaves tree in
  let names =
    Array.map
      (fun l ->
        match Tree.name tree l with
        | Some s -> s
        | None -> invalid "tree has an unnamed leaf")
      leaves
  in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun name ->
      if Hashtbl.mem seen name then invalid "tree repeats leaf %S" name;
      Hashtbl.add seen name ())
    names;
  let rd = Tree.root_distance tree in
  of_fun ~names (fun i j ->
      let a = leaves.(i) and b = leaves.(j) in
      let l = Ops.naive_lca tree a b in
      rd.(a) +. rd.(b) -. (2.0 *. rd.(l)))

let check_additive_fit t tree =
  let reference = of_tree tree in
  if Array.length reference.names <> Array.length t.names then
    invalid "taxon count mismatch";
  (* Match by name. *)
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace index_of name i) reference.names;
  let n = Array.length t.names in
  let total = ref 0.0 and count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ri =
        match Hashtbl.find_opt index_of t.names.(i) with
        | Some x -> x
        | None -> invalid "taxon %S not in tree" t.names.(i)
      in
      let rj = Hashtbl.find index_of t.names.(j) in
      let diff = t.d.(i).(j) -. reference.d.(ri).(rj) in
      total := !total +. (diff *. diff);
      incr count
    done
  done;
  sqrt (!total /. float_of_int !count)
