(** Minimal 4x4 real matrix arithmetic for nucleotide rate matrices. *)

type t = float array array
(** Row-major 4x4. *)

val zero : unit -> t
val identity : unit -> t
val of_rows : float array array -> t
(** Validates shape; copies. *)

val add : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val expm : t -> t
(** Matrix exponential by scaling-and-squaring with a Taylor series —
    accurate to ~1e-12 for the magnitudes rate matrices reach. *)

val row_stochastic : ?tolerance:float -> t -> bool
(** Are all entries >= -tolerance with rows summing to 1 ± tolerance? *)
