(** Order statistics for the figures the benchmark reports.

    Timings are reported as medians.  A tail percentile is reported only
    when at least ten samples lie beyond it, so a p99 needs 1000
    samples. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** First quartile, median, third quartile by the "exclusive" method of
    Python's [statistics.quantiles(values, n=4)], so spreads computed
    here match the ones a Python reader computes from the same values.
    @raise Invalid_argument with fewer than two values. *)

val beyond : float -> int -> int
(** [beyond p n]: how many of [n] sorted samples lie above the
    nearest-rank [p]-quantile ([0 < p <= 1]). *)

val percentile : float -> float list -> float option
(** Nearest-rank [p]-quantile, or [None] when fewer than ten samples lie
    beyond it. *)
