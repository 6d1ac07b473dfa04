(** Descriptive statistics for experiment reports. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 for arrays of length < 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in \[0,100\], linear interpolation between
    order statistics. Raises [Invalid_argument] on empty input or [p]
    outside the range. *)

val median : float array -> float
val min : float array -> float
val max : float array -> float
val sum : float array -> float

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

