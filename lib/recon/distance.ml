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

(* Two bit planes per sequence, 62 sites per int: site [i] is bit
   [i mod 62] of word [i / 62] in each plane, coded A=00, C=01, G=10,
   T=11 as (high, low). The low bit is 0 exactly at the purines, so two
   sites differ when either plane's bits differ, and by a transversion
   when the low bits differ. Word [w] of the low plane sits at index
   [2w], of the high plane at [2w + 1]. 62 sites keep every word and
   popcount inside OCaml's 63-bit ints. *)
let sites_per_word = 62

(* Each base's two-bit code, indexed by character code: a lookup, where
   a match on random bases would mispredict most of its branches. Every
   other character codes as [non_base]. *)
let non_base = 4

let base_code =
  String.init 256 (fun c ->
      match Char.chr c with
      | 'A' | 'a' -> '\000'
      | 'C' | 'c' -> '\001'
      | 'G' | 'g' -> '\002'
      | 'T' | 't' -> '\003'
      | _ -> Char.chr non_base)

let code_of c = Char.code base_code.[Char.code c]

(* Pack taxon [name]'s sequence, checking its characters on the way: a
   word's codes are or-ed together, and a word holding a non-base is
   searched for its first one, so the character named is the first in
   the sequence, as a site-by-site check would find. *)
let planes name seq =
  let len = String.length seq in
  let words = (len + sites_per_word - 1) / sites_per_word in
  let p = Array.make (2 * words) 0 in
  for w = 0 to words - 1 do
    let lo = ref 0 and hi = ref 0 and all = ref 0 in
    let first = w * sites_per_word in
    let sites = Int.min sites_per_word (len - first) in
    for bit = 0 to sites - 1 do
      let code = code_of seq.[first + bit] in
      all := !all lor code;
      lo := !lo lor ((code land 1) lsl bit);
      hi := !hi lor ((code lsr 1) lsl bit)
    done;
    if !all land non_base <> 0 then begin
      let rec first_non_base i = if code_of seq.[i] = non_base then i else first_non_base (i + 1) in
      invalid "taxon %S has non-DNA character %C" name seq.[first_non_base first]
    end;
    p.(2 * w) <- !lo;
    p.((2 * w) + 1) <- !hi
  done;
  p

(* Check the input and pack each sequence, in one pass over each:
   names, planes and the common length. *)
let validate seqs =
  let n = List.length seqs in
  if n < 2 then invalid "need at least 2 sequences (got %d)" n;
  let seen = Hashtbl.create 16 in
  let len = ref (-1) in
  let packed =
    List.map
      (fun (name, seq) ->
        if Hashtbl.mem seen name then invalid "duplicate taxon %S" name;
        Hashtbl.add seen name ();
        if !len = -1 then len := String.length seq
        else if String.length seq <> !len then
          invalid "taxon %S has length %d, expected %d" name (String.length seq) !len;
        planes name seq)
      seqs
  in
  if !len = 0 then invalid "sequences are empty";
  (Array.of_list (List.map fst seqs), Array.of_list packed, !len)

(* Set bits of a non-negative int below 2^62. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Site difference fractions of one pair of [len]-site sequences:
   (transitions, transversions). *)
let pair_fractions len a b =
  let differences = ref 0 and transversions = ref 0 in
  for w = 0 to (Array.length a / 2) - 1 do
    let lo = a.(2 * w) lxor b.(2 * w) and hi = a.((2 * w) + 1) lxor b.((2 * w) + 1) in
    differences := !differences + popcount (lo lor hi);
    transversions := !transversions + popcount lo
  done;
  let l = float_of_int len in
  (float_of_int (!differences - !transversions) /. l, float_of_int !transversions /. l)

(* Every pairwise distance model here is symmetric, so each unordered
   pair is computed once, on sequences packed once per taxon. *)
let of_pairs seqs model =
  let names, packed, len = validate seqs in
  let n = Array.length names in
  let d = Array.init n (fun _ -> Array.make n 0.0) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p, q = pair_fractions len packed.(i) packed.(j) in
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
