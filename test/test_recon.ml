(* Tests for crimson_recon: distances, UPGMA, NJ, parsimony, rerooting,
   consensus — and the tree metrics they are scored with. *)

module Tree = Crimson_tree.Tree
module Metrics = Crimson_tree.Metrics
module Newick = Crimson_formats.Newick
module Distance = Crimson_recon.Distance
module Nj = Crimson_recon.Nj
module Upgma = Crimson_recon.Upgma
module Parsimony = Crimson_recon.Parsimony
module Reroot = Crimson_recon.Reroot
module Consensus = Crimson_recon.Consensus
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng

let check = Alcotest.check

(* ----------------------------- Metrics ----------------------------- *)

let test_rf_identical () =
  let t = Newick.parse "((A,B),(C,D));" in
  let t' = Newick.parse "((B,A),(D,C));" in
  check Alcotest.int "rooted rf" 0 (Metrics.robinson_foulds t t');
  check Alcotest.int "unrooted rf" 0 (Metrics.robinson_foulds_unrooted t t');
  check (Alcotest.float 0.0) "normalized" 0.0 (Metrics.robinson_foulds_normalized t t')

let test_rf_different () =
  let t = Newick.parse "((A,B),(C,D));" in
  let u = Newick.parse "((A,C),(B,D));" in
  check Alcotest.bool "rooted rf positive" true (Metrics.robinson_foulds t u > 0);
  check Alcotest.bool "unrooted rf positive" true
    (Metrics.robinson_foulds_unrooted t u > 0);
  let nrf = Metrics.robinson_foulds_normalized t u in
  check Alcotest.bool "normalized in (0,1]" true (nrf > 0.0 && nrf <= 1.0)

let test_rf_unrooted_ignores_rooting () =
  (* The same unrooted tree rooted differently: unrooted RF must be 0. *)
  let a = Newick.parse "(((A,B),C),(D,E));" in
  let b = Reroot.at_outgroup a ~outgroup:"A" in
  check Alcotest.int "unrooted rf" 0 (Metrics.robinson_foulds_unrooted a b)

let test_rf_incomparable () =
  let t = Newick.parse "((A,B),C);" in
  let u = Newick.parse "((A,B),D);" in
  match Metrics.robinson_foulds t u with
  | exception Metrics.Incomparable _ -> ()
  | _ -> Alcotest.fail "different leaf sets accepted"

let test_clades () =
  let t = Newick.parse "((A,B),(C,D));" in
  let clades = List.sort compare (Metrics.clades t) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "clades"
    [ [ "A"; "B" ]; [ "C"; "D" ] ]
    clades

let test_splits () =
  let t = Newick.parse "((A,B),(C,D),E);" in
  let splits = List.sort compare (Metrics.splits t) in
  (* Splits are canonicalised away from the smallest leaf A: AB|CDE ->
     CDE side contains no A?? No: side without A is {C,D,E}... the AB
     split stores {C,D,E}? The split from clade {A,B} flips to {C,D,E};
     clade {C,D} stays {C,D}. *)
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "splits"
    [ [ "C"; "D" ]; [ "C"; "D"; "E" ] ]
    splits

let test_triplet_distance () =
  let t = Newick.parse "((A,B),(C,D));" in
  let rng = Prng.create 1 in
  check (Alcotest.float 0.0) "identical" 0.0 (Metrics.triplet_distance ~rng t t);
  let u = Newick.parse "((A,C),(B,D));" in
  check Alcotest.bool "different" true (Metrics.triplet_distance ~rng t u > 0.0)

let test_path_length_distance () =
  let t = Newick.parse "((A:1,B:1):1,C:2);" in
  check (Alcotest.float 1e-9) "self" 0.0 (Metrics.path_length_distance t t);
  let u = Newick.parse "((A:2,B:2):1,C:2);" in
  check Alcotest.bool "scaled differs" true (Metrics.path_length_distance t u > 0.0)

(* Reference implementations of the metrics: clades and splits as
   sorted leaf-name lists keyed by their concatenation, name sets merged
   with [Set.Make (String)], leaf-pair LCAs by parent-pointer walks, and
   sampling through a hash set of earlier picks. The library's bitmap,
   sparse-table and ordinal code must match them bit for bit, draw for
   draw. *)
module Metrics_oracle = struct
  exception Incomparable of string

  let incomparable fmt = Printf.ksprintf (fun s -> raise (Incomparable s)) fmt

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

  let prepare a b =
    let ma = leaf_map a and mb = leaf_map b in
    if Hashtbl.length ma <> Hashtbl.length mb then incomparable "leaf sets differ in size";
    Hashtbl.iter
      (fun name _ -> if not (Hashtbl.mem mb name) then incomparable "leaf %S only in one tree" name)
      ma;
    (ma, mb)

  let sorted_names m =
    Array.of_list (List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) m []))

  let clades t =
    ignore (leaf_map t);
    let n = Tree.node_count t in
    let below = Array.make n [] in
    Array.iter
      (fun v ->
        if Tree.is_leaf t v then below.(v) <- [ Option.get (Tree.name t v) ]
        else
          Tree.iter_children t v (fun c -> below.(v) <- List.rev_append below.(c) below.(v)))
      (Tree.postorder t);
    let acc = ref [] in
    for v = 0 to n - 1 do
      if (not (Tree.is_leaf t v)) && v <> Tree.root t then
        acc := List.sort String.compare below.(v) :: !acc
    done;
    !acc

  let splits t =
    let all_names = Array.to_list (sorted_names (leaf_map t)) in
    let n_leaves = List.length all_names in
    let reference = match all_names with r :: _ -> r | [] -> "" in
    let module SS = Set.Make (String) in
    let universe = SS.of_list all_names in
    let n = Tree.node_count t in
    let below = Array.make n SS.empty in
    Array.iter
      (fun v ->
        if Tree.is_leaf t v then below.(v) <- SS.singleton (Option.get (Tree.name t v))
        else Tree.iter_children t v (fun c -> below.(v) <- SS.union below.(c) below.(v)))
      (Tree.postorder t);
    let acc = ref [] in
    for v = 0 to n - 1 do
      if (not (Tree.is_leaf t v)) && v <> Tree.root t then begin
        let side = below.(v) in
        let side = if SS.mem reference side then SS.diff universe side else side in
        let k = SS.cardinal side in
        if k >= 2 && k <= n_leaves - 2 then acc := SS.elements side :: !acc
      end
    done;
    List.sort_uniq compare !acc

  let keys sets =
    let keys = Hashtbl.create 64 in
    List.iter (fun names -> Hashtbl.replace keys (String.concat "\x00" names) ()) sets;
    keys

  (* (symmetric difference, total) of two key sets. *)
  let compare_keys ka kb =
    let diff = ref 0 in
    Hashtbl.iter (fun k () -> if not (Hashtbl.mem kb k) then incr diff) ka;
    Hashtbl.iter (fun k () -> if not (Hashtbl.mem ka k) then incr diff) kb;
    (!diff, Hashtbl.length ka + Hashtbl.length kb)

  let normalized (diff, total) =
    if total = 0 then 0.0 else float_of_int diff /. float_of_int total

  let rooted a b =
    ignore (prepare a b);
    compare_keys (keys (clades a)) (keys (clades b))

  let unrooted a b =
    ignore (prepare a b);
    compare_keys (keys (splits a)) (keys (splits b))

  let robinson_foulds a b = fst (rooted a b)
  let robinson_foulds_normalized a b = normalized (rooted a b)

  let shared_clades a b =
    let diff, total = rooted a b in
    (total - diff) / 2

  let robinson_foulds_unrooted a b = fst (unrooted a b)
  let robinson_foulds_unrooted_normalized a b = normalized (unrooted a b)

  let sample rng ~k ~n =
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = Prng.int rng n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out

  let triplet_topology t depths la lb lc =
    let dab = depths.(Crimson_tree.Ops.naive_lca t la lb)
    and dac = depths.(Crimson_tree.Ops.naive_lca t la lc)
    and dbc = depths.(Crimson_tree.Ops.naive_lca t lb lc) in
    if dab > dac && dab > dbc then 0
    else if dac > dab && dac > dbc then 1
    else if dbc > dab && dbc > dac then 2
    else 3

  let triplet_distance ~rng a b =
    let ma, mb = prepare a b in
    let names = sorted_names ma in
    let n = Array.length names in
    if n < 3 then 0.0
    else begin
      let da = Tree.depths a and db = Tree.depths b in
      let disagreements = ref 0 and total = ref 0 in
      let test i j k =
        let leaf m x = Hashtbl.find m names.(x) in
        incr total;
        if
          triplet_topology a da (leaf ma i) (leaf ma j) (leaf ma k)
          <> triplet_topology b db (leaf mb i) (leaf mb j) (leaf mb k)
        then incr disagreements
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
        for _ = 1 to 2000 do
          let pick = sample rng ~k:3 ~n in
          test pick.(0) pick.(1) pick.(2)
        done;
      float_of_int !disagreements /. float_of_int !total
    end

  let path_length_distance a b =
    let ma, mb = prepare a b in
    let names = sorted_names ma in
    let n = Array.length names in
    if n < 2 then 0.0
    else begin
      let rda = Tree.root_distance a and rdb = Tree.root_distance b in
      let dist t rd m x y =
        let lx = Hashtbl.find m names.(x) and ly = Hashtbl.find m names.(y) in
        rd.(lx) +. rd.(ly) -. (2.0 *. rd.(Crimson_tree.Ops.naive_lca t lx ly))
      in
      let total = ref 0.0 and count = ref 0 in
      let consider x y =
        let d = dist a rda ma x y -. dist b rdb mb x y in
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
        let rng = Prng.create 1789 in
        for _ = 1 to 20_000 do
          let pick = sample rng ~k:2 ~n in
          consider pick.(0) pick.(1)
        done
      end;
      sqrt (!total /. float_of_int !count)
    end
end

(* Rebuild [t] in preorder, inserting a chain of one or two unary nodes
   above a quarter of the non-root nodes (their branch length split
   evenly) and, half the time, one above the root. *)
let with_unary_chains rng t =
  let b = Tree.Builder.create () in
  let ids = Array.make (Tree.node_count t) Tree.nil in
  Array.iter
    (fun v ->
      let name = Tree.name t v in
      let p = Tree.parent t v in
      if p = Tree.nil then
        ids.(v) <-
          (if Prng.bool rng then Tree.Builder.add_child ?name b ~parent:(Tree.Builder.add_root b)
           else Tree.Builder.add_root ?name b)
      else begin
        let chain = if Prng.int rng 4 = 0 then 1 + Prng.int rng 2 else 0 in
        let len = Tree.branch_length t v /. float_of_int (chain + 1) in
        let parent = ref ids.(p) in
        for _ = 1 to chain do
          parent := Tree.Builder.add_child ~branch_length:len b ~parent:!parent
        done;
        ids.(v) <- Tree.Builder.add_child ?name ~branch_length:len b ~parent:!parent
      end)
    (Tree.preorder t);
  Tree.Builder.finish b

(* A copy of [t] with a few leaf names swapped and every branch length
   rescaled by a factor in [0.5, 1.5). *)
let swap_names rng t =
  let leaves = Tree.leaves t in
  let names = Array.map (Tree.name t) leaves in
  for _ = 0 to Prng.int rng 4 do
    let i = Prng.int rng (Array.length names) and j = Prng.int rng (Array.length names) in
    let x = names.(i) in
    names.(i) <- names.(j);
    names.(j) <- x
  done;
  let renamed = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace renamed l names.(i)) leaves;
  let b = Tree.Builder.create () in
  let ids = Array.make (Tree.node_count t) Tree.nil in
  Array.iter
    (fun v ->
      let name = Option.value ~default:(Tree.name t v) (Hashtbl.find_opt renamed v) in
      let p = Tree.parent t v in
      ids.(v) <-
        (if p = Tree.nil then Tree.Builder.add_root ?name b
         else
           Tree.Builder.add_child ?name
             ~branch_length:(Tree.branch_length t v *. (0.5 +. Prng.float rng 1.0))
             b ~parent:ids.(p)))
    (Tree.preorder t);
  Tree.Builder.finish b

(* Trees of 3–300 leaves, so both sides of the 25-leaf triplet switch
   and the 200-leaf path-length switch come up: Yule, birth–death,
   caterpillar, multifurcating random attachment, and random attachment
   with unary chains. The second tree is a midpoint-rooted NJ estimate
   from a 60-site alignment, or a copy with leaf names swapped. *)
let arb_tree_pair =
  let shapes = [| "yule"; "birth-death"; "caterpillar"; "random attachment"; "unary chains" |] in
  QCheck.make
    QCheck.Gen.(quad (int_range 3 300) (int_bound 4) bool (int_bound 1_000_000))
    ~print:(fun (leaves, shape, nj, seed) ->
      Printf.sprintf "%d leaves, %s, %s, seed %d" leaves shapes.(shape)
        (if nj then "vs NJ" else "vs swapped names")
        seed)

let tree_pair (leaves, shape, nj, seed) =
  let rng = Prng.create seed in
  let a =
    match shape with
    | 0 -> Models.yule ~rng ~leaves ()
    | 1 -> Models.birth_death ~rng ~leaves ~birth_rate:1.0 ~death_rate:0.5 ()
    | 2 -> Models.caterpillar ~rng ~leaves ()
    | 3 -> Models.random_attachment ~rng ~leaves ()
    | _ -> with_unary_chains rng (Models.random_attachment ~rng ~leaves ())
  in
  let b =
    if nj then
      let truth = Crimson_tree.Ops.normalize_height a ~target:0.5 in
      Reroot.midpoint (Nj.reconstruct (Distance.jc69 (Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:60 truth)))
    else swap_names rng a
  in
  (a, b)

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let prop_metrics_bit_identical =
  QCheck.Test.make ~name:"metrics match the name-list oracles bit for bit" ~count:100
    arb_tree_pair (fun case ->
      let a, b = tree_pair case in
      let module O = Metrics_oracle in
      let rng = Prng.create 7 and oracle_rng = Prng.create 7 in
      Metrics.clades a = O.clades a
      && Metrics.clades b = O.clades b
      && Metrics.splits a = O.splits a
      && Metrics.splits b = O.splits b
      && Metrics.robinson_foulds a b = O.robinson_foulds a b
      && same_float (Metrics.robinson_foulds_normalized a b) (O.robinson_foulds_normalized a b)
      && Metrics.shared_clades a b = O.shared_clades a b
      && Metrics.robinson_foulds_unrooted a b = O.robinson_foulds_unrooted a b
      && same_float
           (Metrics.robinson_foulds_unrooted_normalized a b)
           (O.robinson_foulds_unrooted_normalized a b)
      && same_float (Metrics.triplet_distance ~rng a b) (O.triplet_distance ~rng:oracle_rng a b)
      && Int64.equal (Prng.int64 rng) (Prng.int64 oracle_rng)
      && same_float (Metrics.path_length_distance a b) (O.path_length_distance a b))

(* ---------------------------- Distances ---------------------------- *)

let test_p_distance () =
  let dm = Distance.p_distance [ ("A", "AAAA"); ("B", "AATT"); ("C", "TTTT") ] in
  check (Alcotest.float 1e-9) "A-B" 0.5 (Distance.get dm 0 1);
  check (Alcotest.float 1e-9) "A-C" 1.0 (Distance.get dm 0 2);
  check (Alcotest.float 1e-9) "diag" 0.0 (Distance.get dm 1 1)

let test_distance_validation () =
  (* Every message, and the first error when an input has several. *)
  let refused what seqs expected =
    List.iter
      (fun (model, distance) ->
        match distance seqs with
        | exception Distance.Invalid_input msg ->
            check Alcotest.string (Printf.sprintf "%s (%s)" what model) expected msg
        | _ -> Alcotest.failf "%s accepted (%s)" what model)
      [ ("p", Distance.p_distance); ("jc69", Distance.jc69); ("k2p", Distance.k2p) ]
  in
  refused "no taxon" [] "need at least 2 sequences (got 0)";
  refused "single taxon" [ ("A", "ACGT") ] "need at least 2 sequences (got 1)";
  refused "duplicate name" [ ("A", "ACGT"); ("B", "ACGT"); ("A", "ACGT") ]
    "duplicate taxon \"A\"";
  refused "length mismatch" [ ("A", "ACGT"); ("B", "AC") ]
    "taxon \"B\" has length 2, expected 4";
  refused "non-DNA" [ ("A", "ACGX"); ("B", "ACGT") ] "taxon \"A\" has non-DNA character 'X'";
  refused "empty" [ ("A", ""); ("B", "") ] "sequences are empty";
  (* Sites 61, 62 and 123 end and start the 62-site words the sequences
     are packed in; the first bad site is named, and a taxon's bad
     character is found before a later taxon's length. *)
  List.iter
    (fun site ->
      let seq = Bytes.make 130 'a' in
      Bytes.set seq site 'N';
      if site + 5 < 130 then Bytes.set seq (site + 5) '-';
      refused
        (Printf.sprintf "non-DNA at site %d" site)
        [ ("A", String.make 130 'C'); ("B", Bytes.to_string seq); ("C", "AC") ]
        "taxon \"B\" has non-DNA character 'N'")
    [ 0; 61; 62; 123; 129 ];
  refused "duplicate before length" [ ("A", "ACGT"); ("A", "AC") ] "duplicate taxon \"A\"";
  refused "length before characters" [ ("A", "ACGT"); ("B", "ACGTX") ]
    "taxon \"B\" has length 5, expected 4"

let test_jc_correction () =
  (* JC correction exceeds p and inverts the expected saturation. *)
  let dm_p = Distance.p_distance [ ("A", String.make 100 'A'); ("B", String.concat "" [ String.make 80 'A'; String.make 20 'C' ]) ] in
  let dm_jc = Distance.jc69 [ ("A", String.make 100 'A'); ("B", String.concat "" [ String.make 80 'A'; String.make 20 'C' ]) ] in
  let p = Distance.get dm_p 0 1 in
  let d = Distance.get dm_jc 0 1 in
  check (Alcotest.float 1e-9) "p" 0.2 p;
  check Alcotest.bool "corrected above p" true (d > p);
  check (Alcotest.float 1e-6) "formula" (-0.75 *. log (1.0 -. (4.0 *. 0.2 /. 3.0))) d

let test_jc_saturation () =
  let dm = Distance.jc69 [ ("A", "AAAA"); ("B", "TTTT") ] in
  check Alcotest.bool "finite ceiling" true (Distance.get dm 0 1 <= 5.0)

let test_k2p () =
  (* A<->G is a transition; A<->T a transversion. *)
  let dm = Distance.k2p [ ("A", "AAAAAAAAAA"); ("B", "GGAAAAAAAT") ] in
  let d = Distance.get dm 0 1 in
  check Alcotest.bool "positive" true (d > 0.0);
  (* K2P >= JC on transition-rich data. *)
  let djc = Distance.get (Distance.jc69 [ ("A", "AAAAAAAAAA"); ("B", "GGAAAAAAAT") ]) 0 1 in
  check Alcotest.bool "k2p >= jc here" true (d >= djc -. 1e-9)

let test_of_tree_additive () =
  let t = Newick.parse "((A:1,B:2):1,(C:1,D:1):3);" in
  let dm = Distance.of_tree t in
  let idx name =
    let rec go i = if dm.Distance.names.(i) = name then i else go (i+1) in
    go 0
  in
  check (Alcotest.float 1e-9) "A-B" 3.0 (Distance.get dm (idx "A") (idx "B"));
  check (Alcotest.float 1e-9) "A-C" 6.0 (Distance.get dm (idx "A") (idx "C"));
  check (Alcotest.float 1e-9) "fit" 0.0 (Distance.check_additive_fit dm t)

(* ------------------------------- NJ --------------------------------- *)

let test_nj_recovers_additive_topologies () =
  (* The consistency property: on exact additive distances NJ returns the
     true unrooted topology. *)
  let rng = Prng.create 17 in
  for _ = 1 to 10 do
    let t = Models.yule ~rng ~leaves:(5 + Prng.int rng 40) () in
    let dm = Distance.of_tree t in
    let estimate = Nj.reconstruct dm in
    check Alcotest.int "topology recovered" 0
      (Metrics.robinson_foulds_unrooted t estimate)
  done

let test_nj_recovers_branch_lengths () =
  let rng = Prng.create 19 in
  let t = Models.yule ~rng ~leaves:12 () in
  let dm = Distance.of_tree t in
  let estimate = Nj.reconstruct dm in
  (* Leaf-pair path lengths must match the input distances. *)
  check Alcotest.bool "path lengths recovered" true
    (Metrics.path_length_distance t estimate < 1e-6)

let test_nj_two_and_three_taxa () =
  let dm2 = Distance.p_distance [ ("A", "AAAA"); ("B", "AATT") ] in
  let t2 = Nj.reconstruct dm2 in
  check Alcotest.int "two leaves" 2 (Tree.leaf_count t2);
  let dm3 = Distance.p_distance [ ("A", "AAAA"); ("B", "AATT"); ("C", "TTTT") ] in
  let t3 = Nj.reconstruct dm3 in
  check Alcotest.int "three leaves" 3 (Tree.leaf_count t3)

(* ------------------------------ BIONJ ------------------------------- *)

module Bionj = Crimson_recon.Bionj

let test_bionj_recovers_additive_topologies () =
  (* Like NJ, BIONJ is consistent on additive distances. *)
  let rng = Prng.create 41 in
  for _ = 1 to 8 do
    let t = Models.yule ~rng ~leaves:(5 + Prng.int rng 30) () in
    let dm = Distance.of_tree t in
    check Alcotest.int "topology recovered" 0
      (Metrics.robinson_foulds_unrooted t (Bionj.reconstruct dm))
  done

let test_bionj_on_noisy_data () =
  (* On finite sequences BIONJ should be at least as accurate as NJ on
     average; check it is competitive over several replicates. *)
  let rng = Prng.create 43 in
  let truth =
    Crimson_tree.Ops.normalize_height ~target:0.9 (Models.yule ~rng ~leaves:20 ())
  in
  let nj_total = ref 0 and bionj_total = ref 0 in
  for _ = 1 to 5 do
    let seqs = Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:300 truth in
    let dm = Distance.jc69 seqs in
    nj_total := !nj_total + Metrics.robinson_foulds_unrooted truth (Nj.reconstruct dm);
    bionj_total :=
      !bionj_total + Metrics.robinson_foulds_unrooted truth (Bionj.reconstruct dm)
  done;
  check Alcotest.bool "bionj competitive with nj" true
    (!bionj_total <= !nj_total + 4)

let test_bionj_tiny () =
  let dm = Distance.p_distance [ ("A", "AAAA"); ("B", "AATT"); ("C", "TTTT") ] in
  check Alcotest.int "three taxa" 3 (Tree.leaf_count (Bionj.reconstruct dm))

(* ------------------- Bit-identity against oracles ------------------- *)

(* Reference implementations: distances computed per ordered pair and
   averaged through [Distance.of_fun], NJ and BIONJ over Hashtbls keyed
   by node-id pairs. The library's one-pass distances and slot-indexed
   array NJ and BIONJ must match them bit for bit. *)
module Oracle = struct
  let pair_fractions a b =
    let len = String.length a in
    let transitions = ref 0 and transversions = ref 0 in
    let purine = function 'A' | 'a' | 'G' | 'g' -> true | _ -> false in
    for i = 0 to len - 1 do
      let x = Char.uppercase_ascii a.[i] and y = Char.uppercase_ascii b.[i] in
      if x <> y then
        if purine a.[i] = purine b.[i] then incr transitions else incr transversions
    done;
    let l = float_of_int len in
    (float_of_int !transitions /. l, float_of_int !transversions /. l)

  let two_pass seqs model =
    let arr = Array.of_list seqs in
    Distance.of_fun ~names:(Array.map fst arr) (fun i j ->
        let p, q = pair_fractions (snd arr.(i)) (snd arr.(j)) in
        model p q)

  let p_distance seqs = two_pass seqs (fun p q -> p +. q)

  let jc69 seqs =
    two_pass seqs (fun p q ->
        let p = p +. q in
        if p >= 0.75 then 5.0
        else Float.min (-0.75 *. log (1.0 -. (4.0 *. p /. 3.0))) 5.0)

  let k2p seqs =
    two_pass seqs (fun p q ->
        let a = 1.0 -. (2.0 *. p) -. q in
        let b = 1.0 -. (2.0 *. q) in
        if a <= 0.0 || b <= 0.0 then 5.0
        else Float.min ((-0.5 *. log a) -. (0.25 *. log b)) 5.0)

  let attach_all dm n children b root joins =
    let rec attach parent (v, len) =
      let name = if v < n then Some dm.Distance.names.(v) else None in
      let id = Tree.Builder.add_child ?name ~branch_length:(Float.max 0.0 len) b ~parent in
      List.iter (attach id) children.(v)
    in
    List.iter (attach root) joins;
    Tree.Builder.finish b

  let nj (dm : Distance.t) =
    let n = Distance.size dm in
    if n = 2 then begin
      let b = Tree.Builder.create () in
      let r = Tree.Builder.add_root b in
      let d = Float.max 0.0 (Distance.get dm 0 1) in
      ignore (Tree.Builder.add_child ~name:dm.Distance.names.(0) ~branch_length:(d /. 2.0) b ~parent:r);
      ignore (Tree.Builder.add_child ~name:dm.Distance.names.(1) ~branch_length:(d /. 2.0) b ~parent:r);
      Tree.Builder.finish b
    end
    else begin
      let total = (2 * n) - 2 in
      let children = Array.make total [] in
      let next = ref n in
      let active = Array.init n Fun.id in
      let count = ref n in
      let dist = Hashtbl.create (n * 4) in
      let key a b = (min a b * total) + max a b in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Hashtbl.replace dist (key i j) (Distance.get dm i j)
        done
      done;
      let get a b = if a = b then 0.0 else Hashtbl.find dist (key a b) in
      while !count > 3 do
        let m = !count in
        let r = Array.make m 0.0 in
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            if i <> j then r.(i) <- r.(i) +. get active.(i) active.(j)
          done
        done;
        let best_i = ref 0 and best_j = ref 1 and best_q = ref infinity in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            let q = (float_of_int (m - 2) *. get active.(i) active.(j)) -. r.(i) -. r.(j) in
            if q < !best_q then begin
              best_q := q;
              best_i := i;
              best_j := j
            end
          done
        done;
        let i = !best_i and j = !best_j in
        let a = active.(i) and b = active.(j) in
        let dij = get a b in
        let la = (dij /. 2.0) +. ((r.(i) -. r.(j)) /. (2.0 *. float_of_int (m - 2))) in
        let la = Float.max 0.0 (Float.min dij la) in
        let lb = Float.max 0.0 (dij -. la) in
        let v = !next in
        incr next;
        children.(v) <- [ (a, la); (b, lb) ];
        for x = 0 to m - 1 do
          if x <> i && x <> j then begin
            let c = active.(x) in
            Hashtbl.replace dist (key v c) (Float.max 0.0 ((get a c +. get b c -. dij) /. 2.0))
          end
        done;
        active.(i) <- v;
        active.(j) <- active.(m - 1);
        count := m - 1
      done;
      let b = Tree.Builder.create ~capacity:(2 * total) () in
      let root = Tree.Builder.add_root b in
      let a = active.(0) and bb = active.(1) and c = active.(2) in
      let dab = get a bb and dac = get a c and dbc = get bb c in
      attach_all dm n children b root
        [
          (a, Float.max 0.0 ((dab +. dac -. dbc) /. 2.0));
          (bb, Float.max 0.0 ((dab +. dbc -. dac) /. 2.0));
          (c, Float.max 0.0 ((dac +. dbc -. dab) /. 2.0));
        ]
    end

  let bionj (dm : Distance.t) =
    let n = Distance.size dm in
    if n <= 3 then nj dm
    else begin
      let total = (2 * n) - 2 in
      let children = Array.make total [] in
      let next = ref n in
      let active = Array.init n Fun.id in
      let count = ref n in
      let key a b = (min a b * total) + max a b in
      let dist = Hashtbl.create (n * 4) in
      let var = Hashtbl.create (n * 4) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = Distance.get dm i j in
          Hashtbl.replace dist (key i j) d;
          Hashtbl.replace var (key i j) d
        done
      done;
      let get tbl a b = if a = b then 0.0 else Hashtbl.find tbl (key a b) in
      while !count > 3 do
        let m = !count in
        let r = Array.make m 0.0 in
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            if i <> j then r.(i) <- r.(i) +. get dist active.(i) active.(j)
          done
        done;
        let best_i = ref 0 and best_j = ref 1 and best_q = ref infinity in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            let q =
              (float_of_int (m - 2) *. get dist active.(i) active.(j)) -. r.(i) -. r.(j)
            in
            if q < !best_q then begin
              best_q := q;
              best_i := i;
              best_j := j
            end
          done
        done;
        let i = !best_i and j = !best_j in
        let a = active.(i) and b = active.(j) in
        let dij = get dist a b in
        let la = (dij /. 2.0) +. ((r.(i) -. r.(j)) /. (2.0 *. float_of_int (m - 2))) in
        let la = Float.max 0.0 (Float.min dij la) in
        let lb = Float.max 0.0 (dij -. la) in
        let v = !next in
        incr next;
        children.(v) <- [ (a, la); (b, lb) ];
        let vab = get var a b in
        let lambda =
          if vab <= 0.0 || m <= 2 then 0.5
          else begin
            let s = ref 0.0 in
            for x = 0 to m - 1 do
              if x <> i && x <> j then begin
                let c = active.(x) in
                s := !s +. (get var b c -. get var a c)
              end
            done;
            let l = 0.5 +. (!s /. (2.0 *. float_of_int (m - 2) *. vab)) in
            Float.max 0.0 (Float.min 1.0 l)
          end
        in
        for x = 0 to m - 1 do
          if x <> i && x <> j then begin
            let c = active.(x) in
            let dac = get dist a c and dbc = get dist b c in
            let d' = (lambda *. (dac -. la)) +. ((1.0 -. lambda) *. (dbc -. lb)) in
            Hashtbl.replace dist (key v c) (Float.max 0.0 d');
            let vac = get var a c and vbc = get var b c in
            let v' =
              (lambda *. vac) +. ((1.0 -. lambda) *. vbc)
              -. (lambda *. (1.0 -. lambda) *. vab)
            in
            Hashtbl.replace var (key v c) (Float.max 0.0 v')
          end
        done;
        active.(i) <- v;
        active.(j) <- active.(m - 1);
        count := m - 1
      done;
      let b = Tree.Builder.create ~capacity:(2 * total) () in
      let root = Tree.Builder.add_root b in
      let a = active.(0) and bb = active.(1) and c = active.(2) in
      let dab = get dist a bb and dac = get dist a c and dbc = get dist bb c in
      attach_all dm n children b root
        [
          (a, Float.max 0.0 ((dab +. dac -. dbc) /. 2.0));
          (bb, Float.max 0.0 ((dab +. dbc -. dac) /. 2.0));
          (c, Float.max 0.0 ((dac +. dbc -. dab) /. 2.0));
        ]
    end
end

(* Alignments of 2–60 taxa and 1–300 sites in mixed-case ACGT, half of
   them at a site count on a 62-site word boundary of the distances' bit
   planes. Each taxon mutates its own share of a common ancestor's
   sites, so the distances range from identical to saturated. *)
let arb_alignment =
  let gen =
    QCheck.Gen.(
      int_range 2 60 >>= fun n ->
      oneof [ int_range 1 300; oneofl [ 1; 61; 62; 63; 124; 125 ] ] >>= fun sites ->
      let base = "ACGTacgt" in
      string_size ~gen:(oneofl (List.init 8 (String.get base))) (return sites)
      >>= fun ancestor ->
      let taxon i =
        float_range 0.0 0.8 >>= fun rate ->
        list_repeat sites (pair (float_range 0.0 1.0) (int_bound 7)) >|= fun draws ->
        let s =
          String.of_seq
            (Seq.mapi
               (fun k (u, b) -> if u < rate then base.[b] else ancestor.[k])
               (List.to_seq draws))
        in
        (Printf.sprintf "T%d" i, s)
      in
      flatten_l (List.init n taxon))
  in
  QCheck.make gen ~print:(fun seqs ->
      Printf.sprintf "%d taxa x %d sites" (List.length seqs)
        (String.length (snd (List.hd seqs))))

let same_bits (a : Distance.t) (b : Distance.t) =
  a.Distance.names = b.Distance.names
  && Array.for_all2
       (Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
       a.Distance.d b.Distance.d

let prop_recon_bit_identical =
  QCheck.Test.make ~name:"distances, NJ and BIONJ match the reference oracles bit for bit"
    ~count:200 arb_alignment (fun seqs ->
      same_bits (Distance.p_distance seqs) (Oracle.p_distance seqs)
      && same_bits (Distance.k2p seqs) (Oracle.k2p seqs)
      &&
      let dm = Distance.jc69 seqs in
      same_bits dm (Oracle.jc69 seqs)
      && Tree.equal_ordered ~tolerance:0.0 (Nj.reconstruct dm) (Oracle.nj dm)
      && Tree.equal_ordered ~tolerance:0.0 (Bionj.reconstruct dm) (Oracle.bionj dm))

(* -------------------------- Branch score ---------------------------- *)

let test_branch_score_zero_on_identical () =
  let t = Newick.parse "((A:1,B:2):0.5,C:3);" in
  check (Alcotest.float 1e-9) "self" 0.0 (Metrics.branch_score_distance t t)

let test_branch_score_length_sensitivity () =
  let t = Newick.parse "((A:1,B:2):0.5,C:3);" in
  let u = Newick.parse "((A:1,B:2):0.5,C:4);" in
  (* Only C's edge differs, by 1. *)
  check (Alcotest.float 1e-9) "single edge delta" 1.0
    (Metrics.branch_score_distance t u);
  (* Same topology, scaled lengths: distance grows with the scale gap. *)
  let v = Newick.parse "((A:2,B:4):1,C:6);" in
  check Alcotest.bool "scale gap" true (Metrics.branch_score_distance t v > 1.0)

let test_branch_score_topology_sensitivity () =
  let t = Newick.parse "((A:1,B:1):1,(C:1,D:1):1);" in
  let u = Newick.parse "((A:1,C:1):1,(B:1,D:1):1);" in
  (* Four internal edges differ ({A,B},{C,D} vs {A,C},{B,D}), each of
     length 1: sqrt 4 = 2. *)
  check (Alcotest.float 1e-9) "disjoint clades" 2.0
    (Metrics.branch_score_distance t u)

(* ------------------------------ UPGMA ------------------------------- *)

let test_upgma_recovers_ultrametric () =
  (* UPGMA is consistent exactly on ultrametric (clock-like) data. *)
  let rng = Prng.create 23 in
  for _ = 1 to 8 do
    let t = Models.coalescent ~rng ~leaves:(5 + Prng.int rng 30) () in
    let dm = Distance.of_tree t in
    let estimate = Upgma.reconstruct dm in
    check Alcotest.int "topology recovered" 0
      (Metrics.robinson_foulds_unrooted t estimate)
  done

let test_upgma_misleads_on_nonclock () =
  (* The textbook failure case: two long branches (A, B) on opposite
     sides attract each other under UPGMA, while NJ is consistent. *)
  let t = Newick.parse "((A:10,C:1):1,(B:10,D:1):1);" in
  let dm = Distance.of_tree t in
  let estimate = Upgma.reconstruct dm in
  check Alcotest.bool "upgma errs here" true
    (Metrics.robinson_foulds_unrooted t estimate > 0);
  (* …while NJ gets it right. *)
  check Alcotest.int "nj correct" 0
    (Metrics.robinson_foulds_unrooted t (Nj.reconstruct dm))

let test_upgma_ultrametric_output () =
  let dm =
    Distance.p_distance
      [ ("A", "AAAAAAAA"); ("B", "AAAATTTT"); ("C", "TTTTTTTT") ]
  in
  let t = Upgma.reconstruct dm in
  let rd = Tree.root_distance t in
  let leaf_depths = Array.map (fun l -> rd.(l)) (Tree.leaves t) in
  Array.iter
    (fun d ->
      if Float.abs (d -. leaf_depths.(0)) > 1e-9 then Alcotest.fail "not ultrametric")
    leaf_depths

(* ---------------------------- Parsimony ----------------------------- *)

let test_fitch_score_known () =
  (* Classic example: ((A,B),(C,D)) with site patterns. *)
  let t = Newick.parse "((A,B),(C,D));" in
  (* Site 1: A,A,T,T -> 1 change; site 2: A,T,A,T -> 2 changes. *)
  let seqs = [ ("A", "AA"); ("B", "AT"); ("C", "TA"); ("D", "TT") ] in
  check Alcotest.int "fitch" 3 (Parsimony.fitch_score t seqs)

let test_fitch_zero_on_constant () =
  let t = Newick.parse "((A,B),(C,D));" in
  let seqs = [ ("A", "AAAA"); ("B", "AAAA"); ("C", "AAAA"); ("D", "AAAA") ] in
  check Alcotest.int "no changes" 0 (Parsimony.fitch_score t seqs)

let test_fitch_errors () =
  let t = Newick.parse "((A,B),(C,D));" in
  match Parsimony.fitch_score t [ ("A", "AA"); ("B", "AT"); ("C", "TA") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing sequence accepted"

let test_parsimony_reconstruct_clean_signal () =
  (* Strong signal: simulate long sequences at low divergence on a small
     tree; parsimony should recover the topology. *)
  let rng = Prng.create 29 in
  let t = Models.yule ~rng ~leaves:8 () in
  (* Rescale to short branches for low homoplasy. *)
  let dm = Distance.of_tree t in
  ignore dm;
  let scale = 0.05 /. (Tree.height t |> float_of_int |> Float.max 1.0) in
  let shrunk =
    let b = Tree.Builder.create () in
    let ids = Array.make (Tree.node_count t) Tree.nil in
    Array.iter
      (fun v ->
        let name = Tree.name t v in
        if v = Tree.root t then ids.(v) <- Tree.Builder.add_root ?name b
        else
          ids.(v) <-
            Tree.Builder.add_child ?name
              ~branch_length:(Tree.branch_length t v *. scale +. 0.02)
              b ~parent:ids.(Tree.parent t v))
      (Tree.preorder t);
    Tree.Builder.finish b
  in
  let seqs = Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:2000 shrunk in
  let estimate = Parsimony.reconstruct ~rng seqs in
  check Alcotest.int "parsimony recovers" 0
    (Metrics.robinson_foulds_unrooted shrunk estimate)

let test_parsimony_score_not_worse_than_truth () =
  let rng = Prng.create 31 in
  let t = Models.yule ~rng ~leaves:10 () in
  let seqs = Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:300 t in
  let estimate = Parsimony.reconstruct ~rng seqs in
  (* Heuristic search may land in a local optimum, but it must come very
     close to (and usually beat) the true tree's score. *)
  let truth_score = float_of_int (Parsimony.fitch_score t seqs) in
  check Alcotest.bool "search score within 2% of truth" true
    (float_of_int (Parsimony.fitch_score estimate seqs) <= truth_score *. 1.02)

(* ------------------------------ Reroot ------------------------------ *)

let test_midpoint_known () =
  (* Path A --3-- r --1-- B: diameter 4, midpoint 2 from A, inside A's
     edge. *)
  let t = Newick.parse "(A:3,B:1);" in
  let r = Reroot.midpoint t in
  let a = Option.get (Tree.leaf_by_name r "A") in
  let b = Option.get (Tree.leaf_by_name r "B") in
  check (Alcotest.float 1e-9) "A side" 2.0 (Tree.branch_length r a);
  check (Alcotest.float 1e-9) "B side" 2.0 (Tree.branch_length r b)

let test_midpoint_preserves_topology () =
  let rng = Prng.create 37 in
  for _ = 1 to 5 do
    let t = Models.yule ~rng ~leaves:15 () in
    let r = Reroot.midpoint t in
    check Alcotest.int "same unrooted tree" 0 (Metrics.robinson_foulds_unrooted t r);
    check Alcotest.int "same leaves" (Tree.leaf_count t) (Tree.leaf_count r)
  done

let test_midpoint_zero_diameter () =
  (* Four identical sequences give this NJ tree: every path has length
     0, so the midpoint is on every node, leaves included. *)
  let t = Newick.parse "((A:0,B:0):0,D:0,C:0);" in
  let r = Reroot.midpoint t in
  check Alcotest.int "four leaves" 4 (Tree.leaf_count r);
  List.iter
    (fun name ->
      match Tree.leaf_by_name r name with
      | Some l -> check Alcotest.bool (name ^ " is a leaf") true (Tree.is_leaf r l)
      | None -> Alcotest.failf "midpoint rooting lost leaf %s" name)
    [ "A"; "B"; "C"; "D" ];
  check Alcotest.int "same unrooted tree" 0 (Metrics.robinson_foulds_unrooted t r)

module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Bm = Crimson_benchmark.Benchmark_manager

let test_identical_sequences_score () =
  (* Stored species data that are all one sequence: every estimate has
     zero-length branches, and each replicate must still score. *)
  let repo = Repo.open_mem () in
  let gold = Models.yule ~rng:(Prng.create 5) ~leaves:12 () in
  let stored = (Loader.load_tree ~f:4 repo ~name:"flat" gold).tree in
  let seq = String.make 60 'A' in
  let species =
    Array.to_list (Tree.leaves gold)
    |> List.map (fun l -> (Option.get (Tree.name gold l), seq))
  in
  ignore (Loader.append_species repo stored species);
  let config =
    { Bm.default_config with sample_k = 6; replicates = 2; record_history = false }
  in
  let outcomes = Bm.run repo stored config in
  check Alcotest.int "every replicate scored"
    (2 * List.length config.algorithms)
    (List.length outcomes);
  List.iter
    (fun (o : Bm.outcome) ->
      check Alcotest.int "taxa" 6 o.taxa;
      check Alcotest.bool "triplet in [0,1]" true (o.triplet >= 0.0 && o.triplet <= 1.0))
    outcomes

let test_outgroup_rooting () =
  let t = Newick.parse "((A:1,B:1):1,(C:1,D:1):1);" in
  let r = Reroot.at_outgroup t ~outgroup:"C" in
  (* C must now hang directly off the root. *)
  let c = Option.get (Tree.leaf_by_name r "C") in
  check Alcotest.int "C at root" (Tree.root r) (Tree.parent r c);
  check Alcotest.int "unrooted unchanged" 0 (Metrics.robinson_foulds_unrooted t r);
  match Reroot.at_outgroup t ~outgroup:"Z" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown outgroup accepted"

(* ----------------------------- Consensus ---------------------------- *)

let test_majority_rule () =
  let t1 = Newick.parse "((A,B),(C,D));" in
  let t2 = Newick.parse "((A,B),(C,D));" in
  let t3 = Newick.parse "((A,C),(B,D));" in
  let c = Consensus.majority_rule [ t1; t2; t3 ] in
  (* {A,B} and {C,D} appear in 2/3 > 1/2; {A,C}, {B,D} in 1/3. *)
  check Alcotest.int "consensus = majority shape" 0 (Metrics.robinson_foulds t1 c)

let test_majority_rule_no_majority () =
  let t1 = Newick.parse "((A,B),(C,D));" in
  let t2 = Newick.parse "((A,C),(B,D));" in
  let c = Consensus.majority_rule [ t1; t2 ] in
  (* No clade reaches >1/2: the consensus is the star tree. *)
  check Alcotest.int "star" 0 (List.length (Metrics.clades c));
  check Alcotest.int "all leaves kept" 4 (Tree.leaf_count c)

let test_majority_threshold () =
  let t1 = Newick.parse "((A,B),(C,D));" in
  let t2 = Newick.parse "((A,B),(C,D));" in
  let t3 = Newick.parse "((A,C),(B,D));" in
  (* Strict consensus (threshold ~1.0): only unanimous clades. *)
  let c = Consensus.majority_rule ~threshold:0.99 [ t1; t2; t3 ] in
  check Alcotest.int "strict is star" 0 (List.length (Metrics.clades c));
  match Consensus.majority_rule ~threshold:0.3 [ t1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold < 0.5 accepted"

let test_clade_support () =
  let t1 = Newick.parse "((A,B),(C,D));" in
  let t2 = Newick.parse "((A,B),(C,D));" in
  let t3 = Newick.parse "((A,C),(B,D));" in
  let support = Consensus.clade_support [ t1; t2; t3 ] in
  let ab = List.assoc [ "A"; "B" ] support in
  check (Alcotest.float 1e-9) "AB support" (2.0 /. 3.0) ab

let test_consensus_errors () =
  (match Consensus.majority_rule [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty list accepted");
  let t1 = Newick.parse "((A,B),C);" in
  let t2 = Newick.parse "((A,B),D);" in
  match Consensus.majority_rule [ t1; t2 ] with
  | exception Consensus.Inconsistent_leaves _ -> ()
  | _ -> Alcotest.fail "mismatched leaves accepted"

let () =
  Alcotest.run "crimson_recon"
    [
      ( "metrics",
        [
          Alcotest.test_case "rf identical" `Quick test_rf_identical;
          Alcotest.test_case "rf different" `Quick test_rf_different;
          Alcotest.test_case "unrooted rf ignores rooting" `Quick
            test_rf_unrooted_ignores_rooting;
          Alcotest.test_case "incomparable" `Quick test_rf_incomparable;
          Alcotest.test_case "clades" `Quick test_clades;
          Alcotest.test_case "splits" `Quick test_splits;
          Alcotest.test_case "triplet distance" `Quick test_triplet_distance;
          Alcotest.test_case "path length distance" `Quick test_path_length_distance;
          QCheck_alcotest.to_alcotest prop_metrics_bit_identical;
        ] );
      ( "distance",
        [
          Alcotest.test_case "p-distance" `Quick test_p_distance;
          Alcotest.test_case "validation" `Quick test_distance_validation;
          Alcotest.test_case "JC correction" `Quick test_jc_correction;
          Alcotest.test_case "JC saturation" `Quick test_jc_saturation;
          Alcotest.test_case "K2P" `Quick test_k2p;
          Alcotest.test_case "of_tree additive" `Quick test_of_tree_additive;
        ] );
      ( "nj",
        [
          Alcotest.test_case "recovers additive topologies" `Quick
            test_nj_recovers_additive_topologies;
          Alcotest.test_case "recovers branch lengths" `Quick
            test_nj_recovers_branch_lengths;
          Alcotest.test_case "tiny inputs" `Quick test_nj_two_and_three_taxa;
        ] );
      ( "bionj",
        [
          Alcotest.test_case "recovers additive topologies" `Quick
            test_bionj_recovers_additive_topologies;
          Alcotest.test_case "competitive on noisy data" `Slow test_bionj_on_noisy_data;
          Alcotest.test_case "tiny inputs" `Quick test_bionj_tiny;
          QCheck_alcotest.to_alcotest prop_recon_bit_identical;
        ] );
      ( "branch_score",
        [
          Alcotest.test_case "zero on identical" `Quick test_branch_score_zero_on_identical;
          Alcotest.test_case "length sensitivity" `Quick
            test_branch_score_length_sensitivity;
          Alcotest.test_case "topology sensitivity" `Quick
            test_branch_score_topology_sensitivity;
        ] );
      ( "upgma",
        [
          Alcotest.test_case "recovers ultrametric" `Quick
            test_upgma_recovers_ultrametric;
          Alcotest.test_case "fails off-clock (NJ succeeds)" `Quick
            test_upgma_misleads_on_nonclock;
          Alcotest.test_case "output is ultrametric" `Quick test_upgma_ultrametric_output;
        ] );
      ( "parsimony",
        [
          Alcotest.test_case "fitch known score" `Quick test_fitch_score_known;
          Alcotest.test_case "fitch constant sites" `Quick test_fitch_zero_on_constant;
          Alcotest.test_case "fitch errors" `Quick test_fitch_errors;
          Alcotest.test_case "recovers clean signal" `Slow
            test_parsimony_reconstruct_clean_signal;
          Alcotest.test_case "search beats truth score" `Quick
            test_parsimony_score_not_worse_than_truth;
        ] );
      ( "reroot",
        [
          Alcotest.test_case "midpoint known" `Quick test_midpoint_known;
          Alcotest.test_case "midpoint preserves topology" `Quick
            test_midpoint_preserves_topology;
          Alcotest.test_case "midpoint zero diameter" `Quick test_midpoint_zero_diameter;
          Alcotest.test_case "identical sequences score" `Quick
            test_identical_sequences_score;
          Alcotest.test_case "outgroup" `Quick test_outgroup_rooting;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "majority rule" `Quick test_majority_rule;
          Alcotest.test_case "no majority = star" `Quick test_majority_rule_no_majority;
          Alcotest.test_case "threshold" `Quick test_majority_threshold;
          Alcotest.test_case "clade support" `Quick test_clade_support;
          Alcotest.test_case "errors" `Quick test_consensus_errors;
        ] );
    ]
