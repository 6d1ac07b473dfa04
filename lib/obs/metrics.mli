(** Process-global metrics registry.

    Crimson instruments its storage engine and query layer with named
    counters, gauges and latency histograms so that pager hit rates, WAL
    fsyncs and per-query latencies are visible from the CLI ([crimson
    stats], [--metrics]), from the bench harness (BENCH JSON lines) and
    from tests — without threading a context object through every hot
    path.

    Design constraints, in order:

    - the fast path must stay cheap and domain-safe: incrementing a
      counter is one [Atomic] fetch-and-add, a gauge update is one
      atomic store (or a CAS loop for [add]), observing a histogram is
      a handful of float compares into a preallocated [int array] under
      a per-instance mutex — metric handles may be shared freely across
      worker domains;
    - metric instances are created once (at module initialisation or
      handle construction) and cached; name lookup happens only at
      creation and export time;
    - names are dot-separated, lowest layer first: [storage.pager.read],
      [storage.wal.fsync_ms], [core.lca], [core.projection.project].
      Histogram names carry a [_ms] suffix or live under [core.*] where
      the unit is milliseconds by convention.

    The storage and node-cache counters listed in {!Cost.registry}
    ([storage.pager.hit], [core.node_cache.miss], …) are registered
    from the start and read the sum over every domain's {!Cost} record;
    nothing increments them directly. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample (>= 0; negatives clamp to 0). Unit is up to the
      caller — by convention milliseconds. *)

  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val min : t -> float
  val max : t -> float
  (** 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] with [p] in \[0,100\]: estimated from the
      log-scale buckets by linear interpolation, clamped to the exact
      observed min/max. Bucket width bounds the relative error at ~19%.
      0 when empty; raises [Invalid_argument] on [p] out of range. *)

  val cumulative_buckets : t -> (float * int) list
  (** Non-empty log-scale buckets as [(upper_bound, cumulative_count)]
      pairs, ascending; the last cumulative count equals {!count}.
      Empty list when no samples. Feeds the Prometheus [_bucket{le=…}]
      exposition. *)

  val name : t -> string
end

(** {1 Registry} *)

val counter : string -> Counter.t
(** Get-or-create the registered counter of that name. Raises
    [Invalid_argument] when the name is already a gauge or histogram. *)

val gauge : string -> Gauge.t

val gauge_reading : string -> (unit -> float) -> Gauge.t
(** Register a gauge whose value is [read ()] at every read, for a
    quantity its owner already keeps (the pagers' frame bytes). {!reset_all}
    leaves its reading alone. *)

val histogram : string -> Histogram.t

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

val find : string -> metric option

val snapshot : unit -> (string * metric) list
(** Every registered metric, sorted by name. The metric values are live
    handles — read them immediately or they keep moving. *)

val counter_value : string -> int
(** Convenience: registered counter's value, 0 when absent. *)

val reset_all : unit -> unit
(** Zero every registered metric (registration survives). Tests and the
    bench harness call this between experiments. A {!Cost}-backed
    counter is zeroed by recording a baseline; the records keep
    counting. *)

val set_help : string -> string -> unit
(** [set_help name text] attaches a HELP string to a registry name, for
    the Prometheus exposition. May be called before or after the metric
    itself is registered; later calls replace earlier ones. *)

(** {1 Exporters} *)

val to_text : unit -> string
(** Human view: one {!Crimson_util.Table_printer} table — counters and
    gauges first, then histograms with count/mean/p50/p90/p99/max. *)

val prometheus_name : string -> string
(** [crimson_<name>] with every non-alphanumeric character folded to
    [_] — a valid Prometheus metric name for any registry name. *)


val prometheus_escape_help : string -> string
(** Escape a HELP text per the exposition format: backslash doubles,
    newline becomes a literal backslash-n. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format (0.0.4): every metric renamed via
    {!prometheus_name}, with a [# HELP] line when {!set_help} provided
    one. Counters and gauges export directly. Histograms export as true
    cumulative histograms — one [_bucket{le="..."}] series per
    non-empty log-scale bucket plus [le="+Inf"], [_sum] and [_count] —
    and additionally as a [<name>_summary] summary family carrying the
    [quantile="0.5"|"0.9"|"0.99"] estimates. Values keep the registry's
    native unit (milliseconds for latency histograms) — no seconds
    conversion. *)

val to_json : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count": n, "sum": s, "min": m, "max": m, "p50": …, "p90": …,
    "p99": …}}}] — stable shape for BENCH lines and scripts. *)
