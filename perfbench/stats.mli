(** Statistics the benchmark reports: medians, quartiles, the latency
    tail rule and the failure share. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile by the same rule as
    Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method),
    so the spreads printed here match the ones computed from the JSON
    lines.  A single value is its own three quartiles.
    @raise Invalid_argument on an empty list. *)

val spread : float list -> float
(** Interquartile distance as a share of the median (0 when the median
    is 0). *)

val percentile : float list -> float -> float * int
(** [percentile xs p] is the nearest-rank [p]-th percentile (the value
    of rank [ceil (p/100 * n)]) and the number of samples ranked beyond
    it. *)

type tail = { t_pct : float; t_value : float; t_beyond : int }

val tail_ladder : float list
(** Candidate tail percentiles, highest first: 99, 95, 90, 75. *)

val tail : float list -> tail option
(** The highest percentile of {!tail_ladder} with at least 10 samples
    ranked beyond it, with that sample count; [None] when even the 75th
    percentile has fewer than 10 samples beyond it (fewer than 40
    samples).  Never the median. *)

val failed_frac : attempted:int -> failed:int -> float
(** [failed / attempted].
    @raise Invalid_argument unless [0 <= failed <= attempted] and
    [attempted >= 1]. *)
