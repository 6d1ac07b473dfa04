(** Deterministic pseudo-random number generation.

    Crimson experiments must be reproducible: every stochastic component
    (tree models, sequence evolution, sampling queries) threads an explicit
    generator seeded by the caller. The implementation is splitmix64, which
    is fast, has a 64-bit state, and passes BigCrush when used as a stream
    of 64-bit values. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    yield equal streams. *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    decorrelated from [g]'s continuation; used to hand sub-generators to
    parallel or nested tasks deterministically. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int g bound] is uniform in \[0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in \[0, x). *)

val bool : t -> bool

val exponential : t -> rate:float -> float
(** Exponentially distributed waiting time with the given rate.
    Raises [Invalid_argument] when [rate <= 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement g ~k ~n] draws [k] distinct indices from
    \[0, n), in uniformly random order. Raises [Invalid_argument] when
    [k < 0], [n < 0] or [k > n]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val discrete : t -> float array -> int
(** [discrete g weights] samples index [i] with probability proportional to
    [weights.(i)]. Raises [Invalid_argument] if weights are empty, negative
    or all zero. *)
