(* Shared fixtures and generators for the Crimson test suites. *)

module Tree = Crimson_tree.Tree
module Prng = Crimson_util.Prng

(* The paper's Figure 1 tree, reconstructed to satisfy every worked
   example in the text:
   - Dewey labels: Lla = 2.1.1, Spy = 2.1.2, LCA(Lla,Spy) = 2.1 (§2.1);
   - edge-weight multiset {0.75, 1, 1, 0.5, 1.5, 2.5, 1.25} (Figure 1);
   - sampling at evolutionary distance 1 yields exactly the frontier
     {Bha, x, Syn, Bsu} where x is the parent of Lla and Spy (§2.2).

   root ── Bha:1.25          (child 1)
       ├── u:0.5             (child 2)
       │    ├── x:0.75       (2.1)
       │    │    ├── Lla:1.0 (2.1.1)
       │    │    └── Spy:1.0 (2.1.2)
       │    └── Syn:2.5      (2.2)
       └── Bsu:1.5           (child 3) *)
type figure1 = {
  tree : Tree.t;
  root : Tree.node;
  bha : Tree.node;
  u : Tree.node;
  x : Tree.node;
  lla : Tree.node;
  spy : Tree.node;
  syn : Tree.node;
  bsu : Tree.node;
}

let figure1 () =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let bha = Tree.Builder.add_child ~name:"Bha" ~branch_length:1.25 b ~parent:root in
  let u = Tree.Builder.add_child ~name:"u" ~branch_length:0.5 b ~parent:root in
  let x = Tree.Builder.add_child ~name:"x" ~branch_length:0.75 b ~parent:u in
  let lla = Tree.Builder.add_child ~name:"Lla" ~branch_length:1.0 b ~parent:x in
  let spy = Tree.Builder.add_child ~name:"Spy" ~branch_length:1.0 b ~parent:x in
  let syn = Tree.Builder.add_child ~name:"Syn" ~branch_length:2.5 b ~parent:u in
  let bsu = Tree.Builder.add_child ~name:"Bsu" ~branch_length:1.5 b ~parent:root in
  { tree = Tree.Builder.finish b; root; bha; u; x; lla; spy; syn; bsu }

(* Random tree with [n] nodes: node i attaches to a uniform earlier node,
   giving a broad mix of shapes. Leaves are named L<i>. *)
let random_tree rng n =
  assert (n >= 1);
  let b = Tree.Builder.create ~capacity:n () in
  let _root = Tree.Builder.add_root ~name:"root" b in
  for i = 1 to n - 1 do
    let parent = Prng.int rng i in
    let branch_length = 0.1 +. Prng.float rng 2.0 in
    ignore (Tree.Builder.add_child ~name:(Printf.sprintf "N%d" i) ~branch_length b ~parent)
  done;
  Tree.Builder.finish b

(* Caterpillar: a path of [depth] internal nodes, each with one leaf
   hanging off — the deep-tree regime the paper stresses. *)
let caterpillar ?(branch_length = 1.0) depth =
  assert (depth >= 1);
  let b = Tree.Builder.create ~capacity:(2 * depth) () in
  let spine = ref (Tree.Builder.add_root ~name:"root" b) in
  for i = 1 to depth do
    ignore
      (Tree.Builder.add_child ~name:(Printf.sprintf "L%d" i) ~branch_length b
         ~parent:!spine);
    spine :=
      Tree.Builder.add_child ~name:(Printf.sprintf "S%d" i) ~branch_length b
        ~parent:!spine
  done;
  Tree.Builder.finish b

(* Complete binary tree of the given height, leaves named. *)
let balanced_binary height =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let counter = ref 0 in
  let rec grow parent level =
    if level = 0 then ()
    else
      for _ = 1 to 2 do
        let name =
          if level = 1 then begin
            incr counter;
            Some (Printf.sprintf "L%d" !counter)
          end
          else None
        in
        let c = Tree.Builder.add_child ?name ~branch_length:1.0 b ~parent in
        grow c (level - 1)
      done
  in
  grow root height;
  Tree.Builder.finish b

(* Connect to the Unix-domain socket at [path] once a server listens on
   it. [bind] creates the socket file before [listen], so a file that
   exists does not mean a server is ready: a connect in between is
   refused. Retry until a connect succeeds, and fail the test once
   [deadline] (a [Unix.gettimeofday] time) passes. While the returned
   socket stays open it holds one of the server's admission slots, so a
   test that counts sessions should use it as its first client. *)
let connect_when_listening ~deadline path =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () >= deadline then
          Alcotest.failf "no server listening on %s before the deadline" path;
        ignore (Unix.select [] [] [] 0.02);
        attempt ()
  in
  attempt ()

let tree_testable =
  Alcotest.testable
    (fun ppf t -> Format.fprintf ppf "<tree %d nodes>" (Tree.node_count t))
    (fun a b -> Tree.equal_unordered a b)
