(** The tree-collection store: named sets of trees over one shared
    taxon set, stored as a reference-counted bipartition dictionary
    plus per-member dictionary-id lists (near-identical replicates
    delta-encode against the collection's first member).

    Real evaluation runs produce collections — hundreds of bootstrap
    replicates and per-algorithm outputs that share most of their
    bipartitions. Storing the distinct clades once (canonical leaf-set
    bitmaps, keyed in a B+tree with occurrence counts) and each member
    as a short id list makes the collection both small and directly
    queryable: consensus, per-bipartition support and the pairwise
    Robinson–Foulds matrix all run off the dictionary without
    materialising a single member tree.

    Layout (see {!Crimson_core.Schema}):

    - [collections] — catalog: name, sorted taxon names, counters;
    - [bips] — one row per distinct clade: canonical bitmap
      (taxon ordinal [i] at byte [i/8], bit [i mod 8]) + occurrence
      count, keyed by dense dictionary id and by bitmap;
    - [members] — one row per tree: gap-varint id list, full or as
      adds/removes against member 0.

    Mutations are WAL-covered like every other repository write: one
    {!Repo.commit} per logical operation (crash-matrix tested). On a
    read-only repository they refuse with the typed
    [Crimson_storage.Error.Read_only]. *)

module Repo = Crimson_core.Repo
module Tree = Crimson_tree.Tree

exception Collection_error of string
(** Domain errors: unknown or duplicate collection names, a member
    whose leaf set differs from the collection's taxa, invalid
    thresholds. Storage-level failures keep their own typed
    exceptions. *)

type t
(** An open handle on one collection (catalog row + cached taxa). *)

val create : ?commit:bool -> Repo.t -> name:string -> taxa:string list -> t
(** Create an empty collection over the given taxon set (deduplicated,
    stored sorted). Raises {!Collection_error} on a duplicate name or
    an empty taxon list. [commit] (default [true]) ends with
    {!Repo.commit}. *)

val open_name : Repo.t -> string -> t
(** Raises {!Collection_error} when no such collection exists. *)

val list_all : Repo.t -> (int * string) list
(** [(id, name)] of every collection, by id. *)

val drop : ?commit:bool -> Repo.t -> string -> unit
(** Remove a collection: catalog row, dictionary and members. Raises
    {!Collection_error} when absent. One commit (unless
    [~commit:false]). *)

val id : t -> int
val n_trees : t -> int
val n_taxa : t -> int

val taxa : t -> string array
(** Sorted taxon names; the index of a name is its bitmap ordinal. *)

type ingest_report = {
  member : int;  (** Dense member id (0-based). *)
  member_name : string;
  clades : int;  (** Distinct clades of the ingested tree. *)
  new_bips : int;  (** Dictionary entries this tree created. *)
  delta : bool;  (** Stored delta-encoded against member 0. *)
  enc_bytes : int;  (** Encoded id-list size. *)
}

val ingest : ?commit:bool -> ?name:string -> t -> Tree.t -> ingest_report
(** Add one member tree. Its leaf-name set must equal the collection's
    taxa ({!Collection_error} otherwise; [name] defaults to ["m<id>"],
    duplicate member names refuse). Shared clades only bump dictionary
    counts; the member row stores ids, delta-encoded against member 0
    whenever that is smaller. One commit (unless [~commit:false] —
    the crash harness groups operations). *)

val member_names : t -> string list
(** Member names in member-id order. *)

val member_ids : t -> int -> int array
(** The decoded, sorted dictionary-id set of one member (delta members
    resolve through their base). Raises {!Collection_error} on an
    unknown member id. *)

val member_tree : t -> int -> Tree.t
(** Materialise one member's topology from its clade set (branch
    lengths are not stored; every edge reads 1.0). Mainly for export
    and tests — the bulk queries below never call this. *)

val consensus : ?threshold:float -> t -> Tree.t
(** Majority-rule consensus straight off the dictionary: one scan
    keeps every clade whose count/n exceeds [threshold] (default 0.5;
    must be in [0.5, 1]; [1.0] means strict consensus — clades in
    every member), then nests the survivors by cardinality. Kept
    clades at threshold >= 0.5 are pairwise compatible, so this builds
    the tree directly. Deterministic: ties order by bitmap bytes.
    Raises {!Collection_error} on an empty collection or a threshold
    outside [0.5, 1]. Profile stages: "dict_scan", "consensus_build". *)

val support : t -> (string list * int) list
(** Per-bipartition support off the dictionary: [(leaf names, count)]
    per distinct clade, highest count first (ties by bitmap). The
    denominator is {!n_trees}. *)

val rf_matrix : t -> int array array
(** Pairwise rooted Robinson–Foulds distances between all members:
    RF(a,b) is the symmetric difference of their dictionary-id sets —
    computed over decoded id bitsets, never over materialised trees.
    Profile stages: "decode_members", "rf_matrix". *)

type stats = {
  s_trees : int;
  s_taxa : int;
  s_dict_entries : int;  (** Distinct bipartitions in the dictionary. *)
  s_shared_entries : int;  (** Entries with occurrence count >= 2. *)
  s_dict_bytes : int;  (** Encoded dictionary row payloads. *)
  s_member_bytes : int;  (** Encoded member row payloads. *)
  s_naive_bytes : int;
      (** What per-tree storage of the same clade bitmaps would cost:
          every member's clade count times an unshared dictionary-row
          payload. The honest baseline for the compression ratio. *)
}

val stats : t -> stats
val ratio : stats -> float
(** [naive / (dict + member)] — the storage-reduction factor. *)
