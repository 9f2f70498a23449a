(** Small descriptive-statistics helpers shared by the baselines and the
    experiment harness. All functions raise [Invalid_argument] on empty
    input unless documented otherwise. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]); returns [0.] for a
    single observation. *)

val stddev : float array -> float
val minimum : float array -> float
val maximum : float array -> float
val sum : float array -> float

val sum_rows : float -> float array -> int array -> int -> float
(** [sum_rows acc xs rows k] adds [xs.(rows.(0))], ...,
    [xs.(rows.(k - 1))] to [acc] in that order. From [0.] it is {!sum}
    of those values bit for bit, and folding them block by block, each
    block continuing from the last one's result, gives the same bits. *)

val min_rows : float -> float array -> int array -> int -> float
(** {!sum_rows} with [Float.min]: from [infinity], {!minimum} of the
    values bit for bit (and [infinity] when [k = 0]). *)

val max_rows : float -> float array -> int array -> int -> float
(** {!sum_rows} with [Float.max]: from [neg_infinity], {!maximum} of
    the values bit for bit (and [neg_infinity] when [k = 0]). *)

val median : float array -> float
(** Median by sorting a copy; average of the two central elements for
    even-length input. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0, 100], linear interpolation between
    order statistics. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the standard normal inverse CDF at [p] in
    (0, 1) (Acklam's rational approximation, |error| < 1.15e-9). *)

val erf : float -> float
(** Error function (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7). *)

val normal_cdf : float -> float
(** Standard normal CDF via {!erf}. *)

val log_sum_exp : float array -> float
(** Numerically stable [log (sum_i (exp xs.(i)))]. Returns [neg_infinity]
    on empty input. *)
