(** Log-scaled histograms with quantile queries.

    Values are bucketed on a base-2 logarithmic scale with several linear
    sub-buckets per octave (HdrHistogram-style, but tiny): relative error
    of a reported quantile is bounded by one sub-bucket (~9%), while
    memory stays a fixed few hundred ints per histogram.  Exact count,
    sum, min and max are tracked on the side, and quantiles are clamped
    into [[min, max]], so reported quantiles are always monotone in the
    requested rank and bounded by the observed extremes (property-tested
    in [test/test_obs.ml]). *)

type t

val create : unit -> t
val observe : t -> float -> unit
(** Negative values are clamped to 0. *)

val count : t -> int
val sum : t -> float
val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]] (clamped); 0 when empty. *)

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

val summarize : t -> summary
val reset : t -> unit
