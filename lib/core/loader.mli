(** Loading trees and species data into the repositories (the paper's
    Data Loader, §3 "Loading Data").

    A tree is renumbered to dense preorder ids, its hierarchical layered
    index is built in memory, and everything is written to the clustered
    [nodes], [layers], [subtrees] and [summaries] tables — in id order,
    with their runs in [node_runs] — and its named nodes to its name run
    ({!Name_run}) and its species sequences to its species run, before
    the tree's catalog row. A species run is one sorted group of the
    clustered [species] table: each sequence cut into chunks that fit a
    page beside its name, the rows in (name, chunk) order, and each run
    of them keyed in the directory by its first row
    ({!Schema.Species}). Sequences may also be appended to an
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
    than {!Name_run.max_name} or too long, once escaped, for the
    directory key of its name block or species run, and a species name
    that is not a leaf's or is given twice. Logs progress on
    the [crimson.loader] source (the GUI's "messages about the loading
    status"). The returned handle already holds the tree's node runs,
    their leaf maps and views of its lowest ids, so its first reads need
    no page. *)

val append_species : Repo.t -> Stored_tree.t -> (string * string) list -> int
(** Append species data to an existing tree ("append species data to an
    existing phylogenetic tree"); returns the rows the new sequences
    take. The tree's species run is read, the new chunks are merged into
    it, and the merged run replaces the old one: both in the call's one
    batch, so a crash leaves one run or the other. The old rows stay as
    tombstones, so each append grows the species heap by the whole run
    it rewrites. An empty list writes nothing. Raises {!Load_error},
    having written nothing, for names that are not leaves of the tree,
    already have data or are given twice. *)

val species_sequence : Repo.t -> Stored_tree.t -> string -> string option
(** Reassemble a species' sequence from its chunks. The tree's species
    directory is read on the repository handle's first lookup of the
    tree and kept ({!Repo.species_run}); its run keys are searched in
    memory, the run that can hold the name's first chunk is
    binary-searched on its page ({!Crimson_storage.Clustered.seek}), and
    the rows are scanned from the name's first one until the name
    changes. A warm lookup's cost does not grow with the tree's
    sequences. *)

val species_names : Repo.t -> Stored_tree.t -> string list
(** Names with stored sequences, sorted: one scan of the tree's species
    run. *)

val load_nexus : ?f:int -> Repo.t -> Crimson_formats.Nexus.t -> report list
(** Load every tree of a NEXUS document; the document's character matrix
    is attached to each tree whose leaves cover the matrix taxa (matching
    the paper's "load a phylogenetic tree with species data"). *)

val fetch_tree : Stored_tree.t -> Crimson_tree.Tree.t
(** Materialise a stored tree back into memory (export, visualisation).
    Node ids are preserved. *)

val delete_tree : Repo.t -> Stored_tree.t -> unit
(** Remove the tree's rows from every repository table: its catalog row
    first, then each of its clustered groups — its name run and species
    run among them — through their runs. No table is scanned. *)

val check_runs : Repo.t -> string list
(** The directory check, one line per problem ([[]] when none): for each
    clustered table, the runs cover ids [0 .. n-1] of every group of
    every live tree exactly once — [n] the tree's node count, a layer's
    subtree count below it, one top cluster — every row decodes at its
    own rid with its key, and no runs are left of a group that no live
    tree has. Each live tree's name run passes {!Name_run.check} against
    the names of its node rows. Its species run, if any, passes the
    directory check, holds its rows in strictly ascending (name, chunk)
    order with each name's chunks numbered [0 .. k-1], keys each run by
    its first row, and names leaves of the tree only. *)
