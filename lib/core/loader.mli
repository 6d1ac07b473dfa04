(** Loading trees and species data into the repositories (the paper's
    Data Loader, §3 "Loading Data").

    A tree is renumbered to dense preorder ids, its hierarchical layered
    index is built in memory, and everything is written to the clustered
    [nodes], [layers], [subtrees] and [summaries] tables — in id order,
    with their runs in [node_runs] — and its named nodes to its name run
    ({!Name_run}), before the tree's catalog row. Species sequences are
    chunked into the [species] table and may also be appended to an
    already-loaded tree. *)

exception Load_error of string

type report = {
  tree : Stored_tree.t;
  node_rows : int;
  layer_rows : int;
  subtree_rows : int;
  species_rows : int;
}

val load_tree :
  ?f:int ->
  ?species:(string * string) list ->
  Repo.t ->
  name:string ->
  Crimson_tree.Tree.t ->
  report
(** Load a tree under a unique name. [f] (default 8) is the layered-index
    depth bound. [species] are (leaf name, sequence) pairs stored in the
    Species Repository; names must match leaves of the tree, each once.
    Raises {!Load_error}, having written nothing, on a duplicate tree
    name, a tree name too long for its index key, a node name longer
    than {!Name_run.max_name}, and a species name that is not a leaf's,
    is given twice or is too long for its index key. Logs progress on
    the [crimson.loader] source (the GUI's "messages about the loading
    status"). The returned handle already holds the tree's node runs,
    their leaf maps and views of its lowest ids, so its first reads need
    no page. *)

val append_species : Repo.t -> Stored_tree.t -> (string * string) list -> int
(** Append species data to an existing tree ("append species data to an
    existing phylogenetic tree"); returns rows written. Raises
    {!Load_error} for names that are not leaves of the tree or already
    have data. *)

val species_sequence : Repo.t -> Stored_tree.t -> string -> string option
(** Reassemble a species' sequence from its chunks. *)

val species_names : Repo.t -> Stored_tree.t -> string list
(** Names with stored sequences, sorted. *)

val load_nexus : ?f:int -> Repo.t -> Crimson_formats.Nexus.t -> report list
(** Load every tree of a NEXUS document; the document's character matrix
    is attached to each tree whose leaves cover the matrix taxa (matching
    the paper's "load a phylogenetic tree with species data"). *)

val fetch_tree : Stored_tree.t -> Crimson_tree.Tree.t
(** Materialise a stored tree back into memory (export, visualisation).
    Node ids are preserved. *)

val delete_tree : Repo.t -> Stored_tree.t -> unit
(** Remove the tree's rows from every repository table: its catalog row
    first, then each of its clustered groups — its name run among them —
    through their runs, then its species rows through their index. No
    table is scanned. *)

val check_runs : Repo.t -> string list
(** The directory check, one line per problem ([[]] when none): for each
    clustered table, the runs cover ids [0 .. n-1] of every group of
    every live tree exactly once — [n] the tree's node count, a layer's
    subtree count below it, one top cluster — every row decodes at its
    own rid with its key, and no runs are left of a group that no live
    tree has. Each live tree's name run passes {!Name_run.check} against
    the names of its node rows. *)
